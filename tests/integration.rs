//! Cross-crate integration tests: profile → plan → schedule → simulate →
//! train, exercising the public API end to end.

use pipedream::autopilot::{train_supervised, FaultPlan};
use pipedream::core::schedule::Schedule;
use pipedream::core::{PipelineConfig, Planner};
use pipedream::hw::{ClusterPreset, Device, LinkModel, Precision, Topology};
use pipedream::model::profiler::profile_sequential;
use pipedream::model::zoo;
use pipedream::runtime::trainer::evaluate;
use pipedream::runtime::{train_pipeline, LrSchedule, OptimKind, Semantics, TrainOpts};
use pipedream::sim::{simulate_dp, simulate_pipeline};
use pipedream::tensor::data::blobs;
use pipedream::tensor::init::rng;
use pipedream::tensor::layers::{Linear, Relu, Scale, Tanh};
use pipedream::tensor::{Sequential, Tensor};

#[test]
fn plan_schedule_simulate_beats_model_parallelism() {
    // For every zoo model on a 4-GPU server, the planned pipeline must beat
    // vanilla model parallelism (one minibatch in flight) in simulation.
    let topo = ClusterPreset::A.with_servers(1);
    for model in zoo::all_models() {
        let costs = model.costs(&topo.device, model.default_batch, Precision::Fp32);
        let plan = Planner::new(&model, &topo).try_plan().expect("plan");
        let pp = simulate_pipeline(&costs, &topo, &Schedule::one_f_one_b(&plan.config, 32));
        // Model parallelism over a balanced straight split.
        let planner = Planner::new(&model, &topo);
        let mp_config = PipelineConfig::straight(
            model.num_layers(),
            &planner.balanced_boundaries(4).expect("4-way split"),
        );
        let mp = simulate_pipeline(&costs, &topo, &Schedule::model_parallel(&mp_config, 32));
        assert!(
            pp.samples_per_sec > 1.5 * mp.samples_per_sec,
            "{}: planned {} vs MP {}",
            model.name,
            pp.samples_per_sec,
            mp.samples_per_sec
        );
    }
}

#[test]
fn profiled_model_plans_and_trains_under_that_plan() {
    // Full Figure-6 workflow on a real model: profile it, plan a pipeline
    // for a small cluster, then actually train with the planned stages.
    let mut r = rng(21);
    let mut model = Sequential::new("e2e")
        .push(Linear::new(8, 32, &mut r))
        .push(Relu::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Relu::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Linear::new(32, 4, &mut r));
    let device = Device::v100();
    let profile = profile_sequential(&mut model, &Tensor::zeros(&[16, 8]), 1, 2, &device);
    assert_eq!(profile.num_layers(), 6);

    // Slow links make the planner prefer a pipeline over DP.
    let topo = Topology::flat(device, 3, LinkModel::from_gbps(0.5, 1e-4), "slow");
    let plan = Planner::from_costs(profile.costs(&topo.device, 16, Precision::Fp32), &topo)
        .try_plan()
        .expect("plan");
    plan.config.validate(6).unwrap();
    assert_eq!(plan.config.total_workers(), 3);

    // Train under the planned configuration.
    let data = blobs(192, 8, 4, 0.5, 33);
    let opts = TrainOpts {
        epochs: 8,
        batch: 16,
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
        obs: None,
        ..TrainOpts::default()
    };
    let (mut trained, report) = train_pipeline(model, &plan.config, &data, &opts);
    assert_eq!(report.per_epoch.len(), 8);
    let acc = evaluate(&mut trained, &data, 16);
    assert!(acc > 0.85, "end-to-end accuracy {acc}");
}

#[test]
fn checkpoint_restart_resumes_identically() {
    use pipedream::runtime::checkpoint;
    let dir = std::env::temp_dir().join(format!("pd-integ-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let build = || {
        let mut r = rng(5);
        Sequential::new("ckpt")
            .push(Linear::new(8, 24, &mut r))
            .push(Relu::new())
            .push(Linear::new(24, 24, &mut r))
            .push(Linear::new(24, 3, &mut r))
    };
    let data = blobs(96, 8, 3, 0.5, 11);
    let config = PipelineConfig::straight(4, &[1, 2]);
    let opts = |epochs: usize| TrainOpts {
        epochs,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: None,
        resume: false,
        depth: None,
        obs: None,
        ..TrainOpts::default()
    };

    // Run 3 epochs with checkpointing.
    let (_, _) = train_pipeline(build(), &config, &data, &opts(3));
    // 3 epochs of 96 / 16 = 6 minibatches.
    let latest = checkpoint::latest_complete(&dir, 3).expect("checkpoints written");
    assert_eq!(latest, 18);

    // "Restart": load every stage's checkpoint into a fresh model and
    // verify it matches a model trained straight through.
    use pipedream::tensor::Layer;
    let (trained, _) = train_pipeline(build(), &config, &data, &opts(3));
    let mut restored = build();
    let boundaries = [2usize, 3];
    let mut all_params = Vec::new();
    for stage in 0..3 {
        all_params.extend(checkpoint::load_stage(&dir, stage, latest).unwrap());
    }
    restored.restore(&all_params);
    let _ = boundaries;
    for (a, b) in restored.snapshot().iter().zip(trained.snapshot().iter()) {
        assert_eq!(a, b, "restored parameters must equal the trained ones");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_dates_a_kill_after_a_long_delay_by_the_kill() {
    // §4 recovery of one segment that sees two faults: stage 0 stalls
    // 2.5 s on minibatch 5's send, then stage 1 dies at minibatch 24. The
    // failure is detected when the killed worker's peers fail of it, so
    // the recorded detection latency is positive and short, however long
    // the pipeline was quiet before the kill.
    let dir = std::env::temp_dir().join(format!("pd-integ-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut r = rng(70);
    let model = Sequential::new("recover")
        .push(Linear::new(8, 32, &mut r))
        .push(Tanh::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Relu::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Tanh::new())
        .push(Scale::new(32))
        .push(Linear::new(32, 4, &mut r));
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[2, 5]); // 3 stages
    let opts = TrainOpts {
        epochs: 4,
        batch: 16,
        checkpoint_dir: Some(dir.clone()),
        ..TrainOpts::default()
    };
    let faults = "delay:stage=0,mb=5,ms=2500;kill:stage=1,mb=24";
    let plan = std::sync::Arc::new(FaultPlan::parse(faults).unwrap());
    let (_, report) = train_supervised(&model, &config, &data, &opts, None, Some(plan))
        .expect("supervised run recovers");
    let recs: Vec<_> = report.recoveries().collect();
    assert_eq!(recs.len(), 1, "{:?}", report.control_log);
    assert_eq!(recs[0].fault, faults, "both faults fire in one segment");
    let latency = recs[0].detection_latency_s;
    assert!(
        latency > 0.0 && latency < 2.0,
        "detection latency {latency} s must be measured from the kill"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dp_simulation_consistent_with_estimators() {
    // The simulator's DP bytes must match the analytic estimator.
    let model = zoo::gnmt8();
    let topo = ClusterPreset::B.with_servers(2);
    let costs = model.costs(&topo.device, model.default_batch, Precision::Fp32);
    let r = simulate_dp(&costs, &topo, 16);
    let per_sample = pipedream::core::estimates::dp_bytes_per_sample(&costs, 16);
    // bytes_per_worker covers one iteration of G samples per worker; the
    // cluster-wide per-sample figure spreads 16 workers' traffic over 16·G
    // samples, so per worker per sample = per_sample.
    let sim_per_sample = r.bytes_per_worker as f64 / costs.batch as f64;
    assert!(
        (sim_per_sample - per_sample).abs() / per_sample < 0.01,
        "sim {sim_per_sample} vs estimator {per_sample}"
    );
}

#[test]
fn facade_prelude_compiles_and_plans() {
    use pipedream::prelude::*;
    let profile = pipedream::model::zoo::vgg16();
    let topo = ClusterPreset::A.with_servers(4);
    let plan = Planner::new(&profile, &topo).try_plan().expect("plan");
    assert!(plan.samples_per_sec > 0.0);
    assert!(!plan.config.label().is_empty());
}

#[test]
fn deep_model_plans_flat_on_64_workers() {
    // 128 layers on 8 × 8 Cluster-B workers in one DP level: the largest
    // flat request the planner has to serve in a test-sized time.
    let profile = zoo::uniform(128, 1e9, 100_000, 1_000_000);
    let topo = ClusterPreset::B.with_servers(8);
    let planner = Planner::new(&profile, &topo);
    let plan = planner
        .try_plan_flat()
        .expect("128 layers plan on 64 workers");
    plan.config.validate(128).expect("plan covers the model");
    assert_eq!(plan.config.total_workers(), 64, "{}", plan.config);
    planner
        .try_evaluate(&plan.config)
        .expect("own plan evaluates");
}

#[test]
fn traced_run_throughput_within_bounds_of_simulation() {
    // The profile → plan → simulate loop closed against a *measured* run:
    // train a real pipeline under a TraceSession, extract steady-state
    // per-minibatch time from the trace, and bound the gap to the
    // simulator's prediction. The bound is deliberately loose — worker
    // threads time-share whatever cores CI grants, so on a single core the
    // measured time approaches the *sum* of stage computes (≈ stages ×
    // bottleneck) rather than the bottleneck itself — but it still catches
    // unit mistakes, empty traces, and wildly wrong analysis.
    let stages = 3usize;
    let batch = 32usize;
    let mut r = rng(41);
    let mut model = Sequential::new("trace-gap").push(Linear::new(16, 128, &mut r));
    for _ in 0..(stages * 2 - 3) {
        model.push_boxed(Box::new(Relu::new()));
        let lin = Linear::new(128, 128, &mut r);
        model.push_boxed(Box::new(lin));
    }
    model.push_boxed(Box::new(Linear::new(128, 4, &mut r)));
    let topo = Topology::flat(Device::v100(), stages, LinkModel::new(1e14, 0.0), "local");
    let profile = profile_sequential(&mut model, &Tensor::zeros(&[batch, 16]), 1, 3, &topo.device);
    let costs = profile.costs(&topo.device, batch, Precision::Fp32);
    let planner = Planner::from_costs(costs.clone(), &topo);
    let boundaries = planner.balanced_boundaries(stages).unwrap();
    let config = PipelineConfig::straight(profile.num_layers(), &boundaries);
    let predicted: Vec<f64> = planner
        .predicted_stage_times(&config)
        .iter()
        .map(|p| p.effective_s)
        .collect();
    let sim = simulate_pipeline(&costs, &topo, &Schedule::one_f_one_b(&config, 48));

    let data = blobs(256, 16, 4, 0.7, 17);
    let session = pipedream::obs::TraceSession::new();
    let opts = TrainOpts {
        epochs: 3,
        batch,
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
    let (_, report) = train_pipeline(model, &config, &data, &opts);
    assert!(report.wall_time_s > 0.0);

    let v = pipedream::obs::validate(&session.snapshot(), &predicted, sim.per_minibatch_s, batch);
    assert_eq!(v.per_stage.len(), stages);
    assert!(v.measured_per_minibatch_s.is_finite() && v.measured_per_minibatch_s > 0.0);
    let ratio = v.measured_per_minibatch_s / v.simulated_per_minibatch_s;
    assert!(
        ratio > 0.25 && ratio < 12.0,
        "measured/simulated per-minibatch ratio {ratio:.2} out of bounds \
         (measured {:.4}s, simulated {:.4}s)",
        v.measured_per_minibatch_s,
        v.simulated_per_minibatch_s
    );
    for s in &v.per_stage {
        assert!(
            s.measured_s > s.predicted_s * 0.25 && s.measured_s < s.predicted_s * 15.0,
            "stage {} measured {:.5}s vs predicted {:.5}s",
            s.stage,
            s.measured_s,
            s.predicted_s
        );
        // error_frac is consistent with the two times it summarizes.
        let expect = s.measured_s / s.predicted_s - 1.0;
        assert!((s.error_frac - expect).abs() < 1e-9);
    }
}

#[test]
fn trace_files_are_read_and_written_in_linear_time() {
    // No stopwatch: a 20 MB trace and a 4 MiB string take a fraction of
    // a second when reading is linear in the document, and minutes to
    // hours when every string character costs a pass over the rest of it
    // (as it once did: 0.48 s for a 315 KB trace, 18.8 s for a 1 MiB
    // string).
    use pipedream::obs::{
        parse_chrome_trace, render_chrome_trace, Event, SpanKind, TraceSnapshot, TrackEvents,
    };
    let tracks = (0..4)
        .map(|stage| TrackEvents {
            name: format!("stage{stage}.replica0"),
            stage: Some(stage),
            events: (0..8_334u64)
                .flat_map(|mb| {
                    let t = mb * 10_000 + stage as u64 * 1_000;
                    [
                        Event::span(SpanKind::Fwd { mb }, t, t + 900),
                        Event::span(SpanKind::StashPush { mb }, t + 950, t + 950),
                        Event::span(SpanKind::Bwd { mb }, t + 5_000, t + 6_800),
                    ]
                })
                .collect(),
            dropped: 0,
        })
        .collect();
    let snap = TraceSnapshot { tracks };
    let doc = render_chrome_trace(&snap);
    assert!(doc.len() > 20_000_000, "{} bytes", doc.len());
    let back = parse_chrome_trace(&doc).expect("exporter output parses");
    assert_eq!(back.tracks.len(), 4);
    for (b, s) in back.tracks.iter().zip(&snap.tracks) {
        assert_eq!((&b.name, b.stage), (&s.name, s.stage));
        assert_eq!(b.events.len(), 25_002);
        assert!(b.events == s.events);
    }

    // The daemon's body cap, as one string: once borrowed whole, once
    // copied around an escape per KiB.
    for piece in ["x".repeat(1024), format!("{}\\n", "x".repeat(1022))] {
        let name = piece.repeat(4096);
        let doc = format!(
            "{{\"traceEvents\":[{{\"name\":\"thread_name\",\"ph\":\"M\",\"tid\":0,\
             \"args\":{{\"name\":\"{name}\"}}}}]}}"
        );
        let back = parse_chrome_trace(&doc).expect("a long name is still a name");
        assert_eq!(
            back.tracks[0].name.len(),
            4096 * if piece.contains('\\') { 1023 } else { 1024 }
        );
    }
}
