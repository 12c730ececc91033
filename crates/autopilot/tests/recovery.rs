//! End-to-end fault-recovery tests (paper §4): a worker is killed
//! mid-training, the relaunch loop restarts from the last complete
//! per-stage checkpoint — as often as faults fire — and the recovered run
//! redoes at most one epoch of work (`k` minibatches with
//! `checkpoint_every = k`) while ending at the same quality as an
//! unfaulted run.

use pipedream_autopilot::{train_supervised, AutopilotError, FaultPlan};
use pipedream_core::PipelineConfig;
use pipedream_runtime::checkpoint::latest_complete;
use pipedream_runtime::{train_pipeline, LrSchedule, OptimKind, Semantics, TrainOpts};
use pipedream_tensor::data::{blobs, Dataset};
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Scale, Tanh};
use pipedream_tensor::Sequential;
use std::path::PathBuf;
use std::sync::Arc;

fn mlp(seed: u64) -> Sequential {
    let mut r = rng(seed);
    Sequential::new("ft-mlp")
        .push(Linear::new(8, 32, &mut r))
        .push(Tanh::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Relu::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Tanh::new())
        .push(Scale::new(32))
        .push(Linear::new(32, 4, &mut r))
}

fn data() -> Dataset {
    blobs(256, 8, 4, 0.6, 7)
}

fn opts(epochs: usize, dir: Option<PathBuf>) -> TrainOpts {
    TrainOpts {
        epochs,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: dir,
        checkpoint_every: None,
        resume: false,
        depth: None,
        obs: None,
        ..TrainOpts::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pd-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn plan(spec: &str) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::parse(spec).unwrap())
}

/// The acceptance test: 3-stage pipeline, stage 1 killed mid-epoch-2
/// (minibatch 24 of 16/epoch), recovery restarts from the epoch-0
/// checkpoint, redoes exactly one epoch, and lands at the unfaulted
/// run's quality.
#[test]
fn kill_mid_epoch_two_recovers_within_one_epoch() {
    let dir = tmpdir("kill");
    let data = data();
    let config = PipelineConfig::straight(8, &[2, 5]); // 3 stages
    let epochs = 4;

    // Unfaulted baseline for the parity check.
    let (_, baseline) = train_pipeline(mlp(70), &config, &data, &opts(epochs, None));

    let plan = plan("kill:stage=1,mb=24");
    let (_, report) = train_supervised(
        &mlp(70),
        &config,
        &data,
        &opts(epochs, Some(dir.clone())),
        None,
        Some(plan.clone()),
    )
    .expect("supervised run recovers");
    assert!(plan.fired(), "the kill must actually fire");

    let recs: Vec<_> = report.recoveries().collect();
    assert_eq!(recs.len(), 1, "{:?}", report.control_log);
    let rec = recs[0];
    assert_eq!(rec.fault, "kill:stage=1,mb=24");
    // mb 24 is in epoch 1; epoch 0's checkpoint (16 minibatches done) is
    // the last complete one.
    assert_eq!(rec.resumed_from, Some(16));
    assert!(
        rec.epochs_redone <= 1,
        "per-epoch checkpoints bound redone work to one epoch, got {}",
        rec.epochs_redone
    );
    assert!(
        rec.detection_latency_s < 2.0,
        "channel-disconnect detection should be fast, took {:.3}s",
        rec.detection_latency_s
    );

    // The joined report covers the whole logical run: epochs continuing,
    // every minibatch once (the redone ones from the restart).
    let epochs_seen: Vec<usize> = report.per_epoch.iter().map(|e| e.epoch).collect();
    assert_eq!(epochs_seen, vec![0, 1, 2, 3]);
    let ids: Vec<u64> = report.per_minibatch.iter().map(|m| m.0).collect();
    assert_eq!(ids, (0..64).collect::<Vec<u64>>());

    // Quality parity with the unfaulted run (trajectories differ slightly
    // because the restarted pipeline refills from the checkpoint, so exact
    // equality is not expected).
    let acc_diff = (rec.final_accuracy - baseline.final_accuracy()).abs();
    assert!(
        acc_diff <= 0.1,
        "recovered accuracy {} vs unfaulted {} differ by {acc_diff}",
        rec.final_accuracy,
        baseline.final_accuracy()
    );
    assert!(
        rec.final_loss <= baseline.final_loss() * 1.3 + 0.05,
        "recovered loss {} should track unfaulted {}",
        rec.final_loss,
        baseline.final_loss()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Any number of faults: the second kill fires in the segment the first
/// one's recovery launched — at the logical minibatch it names — and the
/// loop recovers again, from the newer checkpoint.
#[test]
fn two_kills_in_two_segments_recover_twice() {
    let dir = tmpdir("two-kills");
    let config = PipelineConfig::straight(8, &[2, 5]);
    let plan = plan("kill:stage=1,mb=24;kill:stage=0,mb=45");
    let (_, report) = train_supervised(
        &mlp(70),
        &config,
        &data(),
        &opts(4, Some(dir.clone())),
        None,
        Some(plan.clone()),
    )
    .expect("both kills recover");
    let recs: Vec<_> = report.recoveries().collect();
    let faults: Vec<&str> = recs.iter().map(|r| r.fault.as_str()).collect();
    assert_eq!(faults, vec!["kill:stage=1,mb=24", "kill:stage=0,mb=45"]);
    let resumed: Vec<_> = recs.iter().map(|r| r.resumed_from).collect();
    assert_eq!(resumed, vec![Some(16), Some(32)]);
    let ids: Vec<u64> = report.per_minibatch.iter().map(|m| m.0).collect();
    assert_eq!(ids, (0..64).collect::<Vec<u64>>());
    let epochs: Vec<usize> = report.per_epoch.iter().map(|e| e.epoch).collect();
    assert_eq!(epochs, vec![0, 1, 2, 3]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dropped activation stalls the downstream stage; the bounded receive
/// timeout converts the stall into a typed failure and the loop recovers
/// the same way it does from a crash.
#[test]
fn dropped_send_is_detected_and_recovered() {
    let dir = tmpdir("drop");
    let data = data();
    let config = PipelineConfig::straight(8, &[2, 5]);

    let plan = plan("drop:stage=0,mb=20");
    let (_, report) = train_supervised(
        &mlp(70),
        &config,
        &data,
        &opts(3, Some(dir.clone())),
        None,
        Some(plan.clone()),
    )
    .expect("supervised run recovers from a dropped message");
    assert!(plan.fired());
    let rec = report.recoveries().next().unwrap();
    assert!(rec.epochs_redone <= 1);
    let epochs_seen: Vec<usize> = report.per_epoch.iter().map(|e| e.epoch).collect();
    assert_eq!(epochs_seen, vec![0, 1, 2]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A delayed send slows the run but needs no recovery: the plan fired,
/// and the control log holds no recovery.
#[test]
fn delayed_send_needs_no_restart() {
    let data = data();
    let config = PipelineConfig::straight(8, &[2, 5]);
    let plan = plan("delay:stage=0,mb=5,ms=30");
    let (_, report) = train_supervised(
        &mlp(70),
        &config,
        &data,
        &opts(2, None),
        None,
        Some(plan.clone()),
    )
    .expect("delay does not fail the run");
    assert!(plan.fired());
    assert_eq!(report.recoveries().count(), 0, "{:?}", report.control_log);
}

/// A checkpoint corrupted on disk disqualifies its epoch: resume falls
/// back to the newest epoch whose every stage file parses.
#[test]
fn corrupt_checkpoint_falls_back_to_previous_epoch() {
    let dir = tmpdir("corrupt");
    let data = data();
    let config = PipelineConfig::straight(8, &[2, 5]); // 3 stages

    // Corrupt stage 1's *last* (epoch 2) checkpoint as it is written.
    let plan = plan("corrupt:stage=1,epoch=2,mode=truncate");
    let (_, report) = train_supervised(
        &mlp(70),
        &config,
        &data,
        &opts(3, Some(dir.clone())),
        None,
        Some(plan.clone()),
    )
    .expect("corruption of a checkpoint does not fail the run itself");
    assert!(plan.fired());
    assert_eq!(report.recoveries().count(), 0);

    // Epoch 2 has a truncated stage-1 file, so the last *complete*
    // checkpoint is epoch 1's (32 minibatches done) — a resumed run must
    // not trust the damaged one.
    assert_eq!(latest_complete(&dir, 3), Some(32));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failure no fault explains is an organic bug: the run ends typed after
/// the one segment it took, instead of relaunching into the same failure.
#[test]
fn organic_failure_ends_typed_after_one_segment() {
    let dir = tmpdir("organic");
    // A regular file where the checkpoint directory should be: the first
    // dump fails on every stage.
    std::fs::write(&dir, "not a directory").unwrap();
    let session = pipedream_obs::TraceSession::new();
    let mut o = opts(2, Some(dir.clone()));
    o.obs = Some(session.clone());
    let plan = plan("kill:stage=7,mb=0"); // no such stage: never fires
    let result = train_supervised(
        &mlp(70),
        &PipelineConfig::straight(8, &[2, 5]),
        &data(),
        &o,
        None,
        Some(plan.clone()),
    );
    match result {
        Err(AutopilotError::UnexpectedFailure(_)) => {}
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("a failed checkpoint write must fail the run"),
    }
    assert!(!plan.fired());
    // One segment's three workers, and no control-plane track: nothing was
    // relaunched.
    assert_eq!(session.snapshot().tracks.len(), 3);
    assert_eq!(session.metrics().counter("faults_detected_total").get(), 0);
    let _ = std::fs::remove_file(&dir);
}

/// Replicated stages checkpoint where every gradient-sync round is closed,
/// so a kill on a replicated configuration resumes from a real checkpoint
/// and redoes at most `k` minibatches plus the in-flight window.
#[test]
fn kill_on_a_replicated_config_resumes_within_k() {
    let dir = tmpdir("replicated");
    let config = PipelineConfig::from_counts(&[(4, 2), (4, 1)]);
    let k = 4;
    let mut o = opts(2, Some(dir.clone()));
    o.checkpoint_every = Some(k);
    let (_, report) = train_supervised(
        &mlp(70),
        &config,
        &data(),
        &o,
        None,
        Some(plan("kill:stage=1,mb=22")),
    )
    .expect("the replicated run recovers");
    let rec = report.recoveries().next().expect("the kill was recovered");
    assert!(rec.resumed_from.is_some(), "{rec:?}");
    let window = config.max_in_flight() as u64;
    assert!(
        rec.minibatches_redone <= k + window,
        "redid {} minibatches, bound {k} + {window}",
        rec.minibatches_redone
    );
    let ids: Vec<u64> = report.per_minibatch.iter().map(|m| m.0).collect();
    assert_eq!(ids, (0..32).collect::<Vec<u64>>());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A traced fault-injected run shows the kill and the recovery on the
/// timeline: the supervisor track carries Fault + Recovery instants, the
/// restarted workers get fresh rows, and the fault counters tick.
#[test]
fn traced_fault_run_records_kill_and_recovery() {
    let dir = tmpdir("trace");
    let data = data();
    let config = PipelineConfig::straight(8, &[2, 5]); // 3 stages
    let session = pipedream_obs::TraceSession::new();
    let mut o = opts(3, Some(dir.clone()));
    o.obs = Some(session.clone());
    let plan = plan("kill:stage=1,mb=20");
    let (_, report) =
        train_supervised(&mlp(70), &config, &data, &o, None, Some(plan.clone())).unwrap();
    assert!(plan.fired());
    assert_eq!(report.recoveries().count(), 1);

    let snap = session.snapshot();
    // Two attempts × 3 workers, plus the supervisor track.
    assert_eq!(
        snap.tracks.len(),
        7,
        "tracks: {:?}",
        snap.tracks
            .iter()
            .map(|t| t.name.clone())
            .collect::<Vec<_>>()
    );
    let sup = snap.tracks.iter().find(|t| t.name == "supervisor").unwrap();
    let kinds: Vec<_> = sup.events.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            pipedream_obs::SpanKind::Fault,
            pipedream_obs::SpanKind::Recovery
        ]
    );
    assert_eq!(session.metrics().counter("faults_detected_total").get(), 1);
    assert_eq!(session.metrics().counter("faults_recovered_total").get(), 1);

    // The rendered Chrome trace carries both instants.
    let json = pipedream_obs::render_chrome_trace(&snap);
    assert!(json.contains("\"name\":\"fault\""), "{json}");
    assert!(json.contains("\"name\":\"recovery\""), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}
