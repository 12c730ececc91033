//! End-to-end reconfiguration tests: checkpointed repartition
//! correctness, loss-trajectory identity across a drain → repartition →
//! resume cycle, and probation rollback on a forced bad plan.

use pipedream_autopilot::{repartition_checkpoint, train_supervised, AutopilotOpts, FaultPlan};
use pipedream_core::PipelineConfig;
use pipedream_hw::{Device, LinkModel, Precision, Topology};
use pipedream_model::profile_sequential;
use pipedream_obs::{DriftConfig, SpanKind};
use pipedream_runtime::checkpoint::{load_stage, save_stage};
use pipedream_runtime::control::RunControl;
use pipedream_runtime::report::ReconfigVerdict;
use pipedream_runtime::trainer::{stuck_workers, try_train_pipeline, TrainOpts};
use pipedream_runtime::{LrSchedule, OptimKind, Semantics};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Tanh};
use pipedream_tensor::{Layer, Sequential, Tensor};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const BATCH: usize = 16;

/// 6-layer MLP: Linear/Tanh/Linear/Tanh/Linear/Linear — enough layers
/// for several distinct partitions.
fn model(seed: u64) -> Sequential {
    let mut r = rng(seed);
    let mut m = Sequential::new("reconfig-mlp").push(Linear::new(8, 32, &mut r));
    m.push_boxed(Box::new(Tanh::new()));
    m.push_boxed(Box::new(Linear::new(32, 32, &mut r)));
    m.push_boxed(Box::new(Tanh::new()));
    m.push_boxed(Box::new(Linear::new(32, 32, &mut r)));
    m.push_boxed(Box::new(Linear::new(32, 4, &mut r)));
    m
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pd-autopilot-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Deterministic single-minibatch-in-flight options: depth 1 means no
/// weight staleness, and momentum 0 means checkpoints (weights only)
/// capture the *entire* training state.
fn deterministic_opts() -> TrainOpts {
    TrainOpts {
        epochs: 2,
        batch: BATCH,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        depth: Some(1),
        ..TrainOpts::default()
    }
}

#[test]
fn repartition_preserves_every_weight() {
    let dir = tmpdir("resplit");
    let gen0 = dir.join("gen0");
    std::fs::create_dir_all(&gen0).unwrap();
    let full = model(3);
    let reference = full.snapshot();
    let n = full.len();

    // Checkpoint under a 2-stage split at a mid-epoch point. Note the
    // two boundary conventions: `straight(n, &[3])` ends stage 0 *after*
    // layer 3, so the matching `split_off` boundary (first layer of the
    // next stage) is 4.
    let old = PipelineConfig::straight(n, &[3]);
    let point = 22; // epoch 1, minibatch 5 of 16
    let stages = model(3).split_off(&[4]);
    for (si, sm) in stages.iter().enumerate() {
        save_stage(&gen0, si, point, &sm.snapshot()).unwrap();
    }

    // Re-split into 3 stages; the reassembled parameter vector must be
    // bit-identical.
    let new = PipelineConfig::straight(n, &[2, 4]);
    let gen1 = dir.join("gen1");
    repartition_checkpoint(&gen0, &old, &gen1, &new, model(99), point).unwrap();

    let mut parts = model(99).split_off(&[3, 5]); // template values are fully overwritten
    for (si, sm) in parts.iter_mut().enumerate() {
        let params = load_stage(&gen1, si, point).unwrap();
        sm.restore(&params);
    }
    let mut rebuilt = Sequential::new("rebuilt");
    for sm in parts {
        for l in sm.into_layers() {
            rebuilt.push_boxed(l);
        }
    }
    let roundtripped = rebuilt.snapshot();
    assert_eq!(reference.len(), roundtripped.len());
    for (a, b) in reference.iter().zip(&roundtripped) {
        assert_eq!(a.data(), b.data(), "weights changed across repartition");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The drain/repartition/resume cycle must be invisible to convergence:
/// a run drained at an arbitrary minibatch, repartitioned onto different
/// stage boundaries, and resumed from the checkpoint must produce the
/// *same per-minibatch loss trajectory* as an uninterrupted run.
#[test]
fn repartitioned_resume_matches_uninterrupted_loss_trajectory() {
    let data = blobs(256, 8, 4, 0.7, 7); // 16 minibatches/epoch at BATCH
    let n = model(3).len();
    let old = PipelineConfig::straight(n, &[3]);
    let new = PipelineConfig::straight(n, &[2, 4]);

    // Reference: the same model trained straight through.
    let (_, base) = try_train_pipeline(model(3), &old, &data, &deterministic_opts(), None)
        .expect("uninterrupted run");
    assert_eq!(base.per_minibatch.len(), 32);

    // Drained run: cut at minibatch 13 (mid-epoch), checkpoint, re-split
    // to a 3-stage plan, resume to the end.
    let dir = tmpdir("loss-id");
    let gen0 = dir.join("gen0");
    let gate = Arc::new(RunControl::new());
    gate.drain_at(13);
    let mut opts1 = deterministic_opts();
    opts1.checkpoint_dir = Some(gen0.clone());
    opts1.control = Some(gate.clone());
    let (_, seg1) = try_train_pipeline(model(3), &old, &data, &opts1, None).expect("drained run");
    let point = seg1.drained_at.expect("run was cut short");
    assert_eq!(point, 13);
    assert_eq!(seg1.per_minibatch.len(), 13);

    let gen1 = dir.join("gen1");
    repartition_checkpoint(&gen0, &old, &gen1, &new, model(3), point).unwrap();

    let mut opts2 = deterministic_opts();
    opts2.checkpoint_dir = Some(gen1.clone());
    opts2.resume = true;
    let (_, seg2) = try_train_pipeline(model(3), &new, &data, &opts2, None).expect("resumed run");
    assert_eq!(
        seg2.per_minibatch[0].0, point,
        "resumed where the drain cut"
    );

    // Join and compare: identical ids, bit-identical losses, epoch
    // numbers continuing.
    let joined = seg1.then(seg2);
    assert_eq!(joined.per_minibatch.len(), base.per_minibatch.len());
    let epochs: Vec<usize> = joined.per_epoch.iter().map(|e| e.epoch).collect();
    assert_eq!(epochs, vec![0, 1]);
    for (got, want) in joined.per_minibatch.iter().zip(&base.per_minibatch) {
        assert_eq!(got.0, want.0, "minibatch ids diverged");
        assert_eq!(
            got.1, want.1,
            "loss diverged at minibatch {} across drain/repartition/resume",
            got.0
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Probation must catch a bad plan: force the autopilot to "repartition"
/// onto the *same* straggler-afflicted plan with an unmeetable margin —
/// the measured throughput cannot clear it, so the run must roll back to
/// the incumbent plan and still finish training.
#[test]
fn forced_bad_plan_rolls_back_and_training_completes() {
    let topo = Topology::flat(Device::v100(), 2, LinkModel::new(1e14, 0.0), "test");
    let mut prof = model(3);
    let profile = profile_sequential(&mut prof, &Tensor::zeros(&[BATCH, 8]), 1, 3, &topo.device);
    let costs = profile.costs(&topo.device, BATCH, Precision::Fp32);
    let n = profile.num_layers();
    let config = PipelineConfig::straight(n, &[3]);

    let data = blobs(512, 8, 4, 0.7, 7); // 32 minibatches/epoch
    let mut opts = deterministic_opts();
    opts.epochs = 2;
    let dir = tmpdir("rollback");
    opts.checkpoint_dir = Some(dir.clone());

    let auto = AutopilotOpts {
        drift: DriftConfig {
            min_minibatches: 1,
            ..DriftConfig::default()
        },
        sample_every: Duration::from_millis(25),
        probation_windows: 2,
        // No plan can beat the degraded baseline 100×: probation must fail.
        probation_margin: 99.0,
        force_plan: Some(config.clone()),
        ..AutopilotOpts::default()
    };
    // 3 ms per forward send from stage 0: an unambiguous straggler that
    // also paces the run slowly enough for the monitor to see it.
    let plan = Arc::new(FaultPlan::parse("straggle:stage=0,ms=3").unwrap());
    let (_, report) = train_supervised(
        &model(3),
        &config,
        &data,
        &opts,
        Some((&costs, &topo, &auto)),
        Some(plan.clone()),
    )
    .expect("autopilot run");

    assert!(plan.straggled() > 0, "straggler never fired");
    assert_eq!(
        report.reconfigs().count(),
        1,
        "expected one reconfig attempt"
    );
    let rec = report.reconfigs().next().unwrap();
    assert_eq!(rec.verdict, ReconfigVerdict::RolledBack, "{rec:?}");
    assert_eq!(rec.old_plan_fingerprint, rec.new_plan_fingerprint);
    assert!(rec.throughput_before > 0.0);

    // The run still finished: every minibatch of every epoch has a loss,
    // exactly once, in order.
    let ids: Vec<u64> = report.per_minibatch.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, (0..64).collect::<Vec<u64>>());
    assert_eq!(report.per_epoch.last().map(|e| e.epoch), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The commit path: force a plan that genuinely fixes the degradation (a
/// single stage — no inter-stage sends, so a forward-send straggler
/// physically cannot fire) and probation must commit it.
#[test]
fn forced_good_plan_commits() {
    let topo = Topology::flat(Device::v100(), 2, LinkModel::new(1e14, 0.0), "test");
    let mut prof = model(3);
    let profile = profile_sequential(&mut prof, &Tensor::zeros(&[BATCH, 8]), 1, 3, &topo.device);
    let costs = profile.costs(&topo.device, BATCH, Precision::Fp32);
    let n = profile.num_layers();
    let config = PipelineConfig::straight(n, &[3]);
    let single_stage = PipelineConfig::straight(n, &[]);

    let data = blobs(512, 8, 4, 0.7, 7);
    let mut opts = deterministic_opts();
    opts.epochs = 2;
    let dir = tmpdir("commit");
    opts.checkpoint_dir = Some(dir.clone());

    let auto = AutopilotOpts {
        drift: DriftConfig {
            min_minibatches: 1,
            ..DriftConfig::default()
        },
        sample_every: Duration::from_millis(25),
        probation_windows: 2,
        probation_margin: 0.05,
        force_plan: Some(single_stage.clone()),
        ..AutopilotOpts::default()
    };
    let plan = Arc::new(FaultPlan::parse("straggle:stage=0,ms=3").unwrap());
    let (_, report) = train_supervised(
        &model(3),
        &config,
        &data,
        &opts,
        Some((&costs, &topo, &auto)),
        Some(plan),
    )
    .expect("autopilot run");

    assert_eq!(
        report.reconfigs().count(),
        1,
        "expected one reconfig attempt"
    );
    let rec = report.reconfigs().next().unwrap();
    assert_eq!(rec.verdict, ReconfigVerdict::Committed, "{rec:?}");
    assert!(
        rec.throughput_after > rec.throughput_before,
        "committed plan did not improve throughput: {rec:?}"
    );
    assert_eq!(rec.minibatches_redone, 0, "a clean drain redoes nothing");
    let ids: Vec<u64> = report.per_minibatch.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, (0..64).collect::<Vec<u64>>());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replan candidate whose schedule cannot run is no plan at all: the
/// trainer would refuse it, so the incumbent resumes from the drain point
/// and finishes the run, with no reconfiguration logged.
#[test]
fn stuck_replan_candidate_keeps_the_incumbent() {
    let topo = Topology::flat(Device::v100(), 2, LinkModel::new(1e14, 0.0), "test");
    let mut prof = model(3);
    let profile = profile_sequential(&mut prof, &Tensor::zeros(&[BATCH, 8]), 1, 3, &topo.device);
    let costs = profile.costs(&topo.device, BATCH, Precision::Fp32);
    let n = profile.num_layers();
    let config = PipelineConfig::straight(n, &[3]);
    // `1-2`: stage 1's replicas meet in a sync round that stage 0's
    // schedule never lets close.
    let stuck = PipelineConfig::from_counts(&[(3, 1), (3, 2)]);

    let data = blobs(512, 8, 4, 0.7, 7);
    let mut opts = deterministic_opts();
    opts.epochs = 2;
    assert!(!stuck_workers(&stuck, &opts, 64).is_empty());
    let dir = tmpdir("stuck-candidate");
    opts.checkpoint_dir = Some(dir.clone());
    let session = pipedream_obs::TraceSession::new();
    opts.obs = Some(session.clone());

    let auto = AutopilotOpts {
        drift: DriftConfig {
            min_minibatches: 1,
            ..DriftConfig::default()
        },
        sample_every: Duration::from_millis(25),
        force_plan: Some(stuck),
        ..AutopilotOpts::default()
    };
    let plan = Arc::new(FaultPlan::parse("straggle:stage=0,ms=3").unwrap());
    let (_, report) = train_supervised(
        &model(3),
        &config,
        &data,
        &opts,
        Some((&costs, &topo, &auto)),
        Some(plan),
    )
    .expect("the incumbent finishes the run");

    // Drift was confirmed and drained on, and the candidate turned down.
    let attempts = session.metrics().counter("reconfig_attempts_total").get();
    assert_eq!(attempts, 1);
    assert_eq!(report.reconfigs().count(), 0, "{:?}", report.control_log);
    let ids: Vec<u64> = report.per_minibatch.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, (0..64).collect::<Vec<u64>>());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A kill under replanning is one more segment to recover, not the end of
/// the run: the commit path of [`forced_good_plan_commits`] with a kill
/// whose minibatch lands in whichever segment — monitored, or the new plan
/// on probation — runs it, ends with one reconfiguration, one recovery,
/// and every minibatch once. A kill on probation leaves the downtime what
/// the first probation segment measured: the failed segment and its
/// restart are recovery, not reconfiguration.
#[test]
fn kill_under_replanning_recovers_in_any_segment() {
    let topo = Topology::flat(Device::v100(), 2, LinkModel::new(1e14, 0.0), "test");
    let mut prof = model(3);
    let profile = profile_sequential(&mut prof, &Tensor::zeros(&[BATCH, 8]), 1, 3, &topo.device);
    let costs = profile.costs(&topo.device, BATCH, Precision::Fp32);
    let n = profile.num_layers();
    let config = PipelineConfig::straight(n, &[3]);

    let data = blobs(512, 8, 4, 0.7, 7);
    let mut opts = deterministic_opts();
    opts.epochs = 2;
    let dir = tmpdir("kill-replan");
    opts.checkpoint_dir = Some(dir.clone());
    let session = pipedream_obs::TraceSession::new();
    opts.obs = Some(session.clone());

    let auto = AutopilotOpts {
        drift: DriftConfig {
            min_minibatches: 1,
            ..DriftConfig::default()
        },
        sample_every: Duration::from_millis(25),
        probation_windows: 2,
        probation_margin: 0.05,
        force_plan: Some(PipelineConfig::straight(n, &[])),
        ..AutopilotOpts::default()
    };
    let plan = Arc::new(FaultPlan::parse("straggle:stage=0,ms=3;kill:stage=0,mb=50").unwrap());
    let (_, report) = train_supervised(
        &model(3),
        &config,
        &data,
        &opts,
        Some((&costs, &topo, &auto)),
        Some(plan.clone()),
    )
    .expect("a kill under replanning recovers");

    assert_eq!(plan.fired_shots().len(), 1, "the kill fired");
    assert_eq!(report.reconfigs().count(), 1, "{:?}", report.control_log);
    assert_eq!(report.recoveries().count(), 1, "{:?}", report.control_log);
    let ids: Vec<u64> = report.per_minibatch.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, (0..64).collect::<Vec<u64>>());

    let rec = report.reconfigs().next().unwrap();
    if rec.drained_at < 50 {
        // The kill landed on probation, after the new plan completed a
        // minibatch. The control track's fourth reconfig instant is
        // `Checkpointing`, entered as the drained segment ended; the
        // downtime runs from there to the new plan's first minibatch,
        // which came before the kill was detected. Counting the failed
        // segment and its restart would run it past the fault, to the
        // retried segment's first profiler sample (one every 25 ms here).
        let snap = session.snapshot();
        let sup = snap.tracks.iter().find(|t| t.name == "supervisor").unwrap();
        let at = |kind: SpanKind, nth: usize| {
            let e = sup.events.iter().filter(|e| e.kind == kind).nth(nth);
            e.expect("instant on the control track").start_ns as f64 / 1e6
        };
        let (cut_ms, fault_ms) = (at(SpanKind::Reconfig, 3), at(SpanKind::Fault, 0));
        assert!(
            rec.downtime_ms < fault_ms - cut_ms + 5.0,
            "downtime {} ms spans the failed probation segment ({} ms from cut to fault)",
            rec.downtime_ms,
            fault_ms - cut_ms
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
