//! Runtime-level fault recovery (paper §4): a stage worker dies
//! mid-training, the pipeline tears itself down with typed errors, and a
//! resumed run continues from the last complete checkpoint with correct
//! epoch numbering and a matching loss trajectory.
//!
//! These tests drive the runtime's [`FaultHook`] seam directly (fault
//! plans and the relaunch loop live in the `pipedream-autopilot` crate).

use pipedream_core::schedule::Op;
use pipedream_core::{PipelineConfig, StagePlan};
use pipedream_runtime::checkpoint::latest_complete;
use pipedream_runtime::fault::{FaultAction, FaultHook, SendAction, WorkerError};
use pipedream_runtime::trainer::try_train_pipeline;
use pipedream_runtime::{LrSchedule, OptimKind, Semantics, TrainOpts};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Scale, Tanh};
use pipedream_tensor::Sequential;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Kill one (stage, replica, mb) op, once. `sync_deadline` is tightened so
/// stranded gradient-sync partners fail fast in tests.
struct KillAt {
    stage: usize,
    replica: usize,
    mb: u64,
    fired: AtomicBool,
}

impl KillAt {
    fn new(stage: usize, mb: u64) -> Self {
        Self::replica(stage, 0, mb)
    }

    fn replica(stage: usize, replica: usize, mb: u64) -> Self {
        KillAt {
            stage,
            replica,
            mb,
            fired: AtomicBool::new(false),
        }
    }
}

impl FaultHook for KillAt {
    fn before_op(&self, stage: usize, replica: usize, op: &Op) -> FaultAction {
        if stage == self.stage
            && replica == self.replica
            && op.minibatch() == Some(self.mb)
            && !self.fired.swap(true, Ordering::SeqCst)
        {
            FaultAction::Kill
        } else {
            FaultAction::Continue
        }
    }

    fn sync_deadline(&self) -> Option<Duration> {
        Some(Duration::from_secs(2))
    }
}

fn mlp(seed: u64) -> Sequential {
    let mut r = rng(seed);
    Sequential::new("fr-mlp")
        .push(Linear::new(8, 32, &mut r))
        .push(Tanh::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Relu::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Tanh::new())
        .push(Scale::new(32))
        .push(Linear::new(32, 4, &mut r))
}

fn opts(epochs: usize, dir: &std::path::Path, resume: bool) -> TrainOpts {
    TrainOpts {
        epochs,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: None,
        resume,
        depth: None,
        obs: None,
        ..TrainOpts::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pd-fr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Kill stage 1 during epoch 1 (of 2), then resume: the run fails with
/// typed errors — the injected kill first — the epoch-0 checkpoint
/// survives, and the resumed run's `EpochStats` and minibatch ids continue
/// where the checkpoint stands, with a loss trajectory that keeps
/// descending.
#[test]
fn killed_run_resumes_with_correct_epoch_numbering() {
    let dir = tmpdir("resume");
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[1, 3, 5]); // 4 stages
    let hook: Arc<dyn FaultHook> = Arc::new(KillAt::new(1, 20)); // epoch 1 (16 mb/epoch)

    let err = match try_train_pipeline(mlp(70), &config, &data, &opts(2, &dir, false), Some(hook)) {
        Err(e) => e,
        Ok(_) => panic!("killed run must fail"),
    };
    assert!(
        err.errors[0].is_injected(),
        "root cause should sort first, got {:?}",
        err.errors
    );
    assert!(matches!(
        err.errors[0],
        WorkerError::Killed {
            stage: 1,
            replica: 0,
            mb: 20
        }
    ));
    // Survivors failed as collateral, with typed errors of their own.
    assert!(err.errors.len() > 1, "peers fail too: {:?}", err.errors);
    // Epoch 0 finished before the fault; its stats and checkpoint exist.
    assert_eq!(err.partial.per_epoch[0].epoch, 0);
    assert_eq!(latest_complete(&dir, 4), Some(16));
    let epoch0_loss = err.partial.per_epoch[0].loss;

    // Resume the same 2-epoch run: numbering continues at epoch 1,
    // minibatch 16.
    let (_, resumed) = try_train_pipeline(mlp(71), &config, &data, &opts(2, &dir, true), None)
        .expect("resumed run completes");
    let epochs: Vec<usize> = resumed.per_epoch.iter().map(|e| e.epoch).collect();
    assert_eq!(epochs, vec![1]);
    let ids: Vec<u64> = resumed.per_minibatch.iter().map(|m| m.0).collect();
    assert_eq!(ids, (16..32).collect::<Vec<u64>>());
    // The two attempts join into one report of the logical run: every
    // minibatch once, epochs continuing.
    let whole = err.partial.then(resumed.clone());
    let ids: Vec<u64> = whole.per_minibatch.iter().map(|m| m.0).collect();
    assert_eq!(ids, (0..32).collect::<Vec<u64>>());
    let epochs: Vec<usize> = whole.per_epoch.iter().map(|e| e.epoch).collect();
    assert_eq!(epochs, vec![0, 1]);
    // Loss trajectory matches a run that continued: epoch 1's loss keeps
    // descending from the checkpointed epoch 0.
    assert!(
        resumed.per_epoch[0].loss < epoch0_loss,
        "resumed epoch-1 loss {} should improve on epoch-0 loss {epoch0_loss}",
        resumed.per_epoch[0].loss
    );
    // And the checkpoint trail now extends through the resumed epoch.
    assert_eq!(latest_complete(&dir, 4), Some(32));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Killing the *input* stage exercises the other disconnect direction:
/// downstream stages starve on `recv` rather than failing on `send`.
#[test]
fn killing_input_stage_cascades_typed_errors() {
    let dir = tmpdir("stage0");
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[2, 5]);
    let hook: Arc<dyn FaultHook> = Arc::new(KillAt::new(0, 18));

    let err = match try_train_pipeline(mlp(70), &config, &data, &opts(2, &dir, false), Some(hook)) {
        Err(e) => e,
        Ok(_) => panic!("killed run must fail"),
    };
    assert!(matches!(
        err.errors[0],
        WorkerError::Killed { stage: 0, .. }
    ));
    for e in &err.errors[1..] {
        assert!(
            !e.is_injected(),
            "only one injected fault: {:?}",
            err.errors
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `f` on a helper thread and fail loudly if it exceeds `limit`: a
/// hang regression (e.g. a stranded all_reduce partner) must fail the
/// test run, not wedge it.
fn with_hard_timeout<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .expect("test exceeded its hard timeout — hang regression")
}

/// The un-strandable-replicas guarantee, end to end: killing one replica
/// of a data-parallel stage mid-training makes its sync partner fail with
/// a typed [`WorkerError::SyncStalled`] (the poisoned gradient-sync group
/// wakes it) instead of blocking forever inside `allreduce`, and the whole
/// pipeline tears down within the configured deadline.
#[test]
fn killed_replica_fails_sync_partner_typed_not_hung() {
    let err = with_hard_timeout(Duration::from_secs(30), || {
        let dir = tmpdir("replicated-kill");
        let data = blobs(256, 8, 4, 0.6, 7);
        // 3 stages; the middle one is replicated ×2 (round-robin routing).
        let config = PipelineConfig::new(vec![
            StagePlan::new(0, 2, 1),
            StagePlan::new(3, 5, 2),
            StagePlan::new(6, 7, 1),
        ]);
        // Replica 1 handles odd minibatches; kill it mid-epoch-1.
        let hook: Arc<dyn FaultHook> = Arc::new(KillAt::replica(1, 1, 21));
        let err =
            match try_train_pipeline(mlp(70), &config, &data, &opts(2, &dir, false), Some(hook)) {
                Err(e) => e,
                Ok(_) => panic!("killed run must fail"),
            };
        let _ = std::fs::remove_dir_all(&dir);
        err
    });
    assert!(matches!(
        err.errors[0],
        WorkerError::Killed {
            stage: 1,
            replica: 1,
            mb: 21
        }
    ));
    // The surviving replica was woken out of the poisoned sync group with
    // a typed error naming the dead partner — not stranded, not a generic
    // channel disconnect.
    let stalled: Vec<_> = err
        .errors
        .iter()
        .filter(|e| {
            matches!(
                e,
                WorkerError::SyncStalled {
                    stage: 1,
                    replica: 0,
                    ..
                }
            )
        })
        .collect();
    assert_eq!(
        stalled.len(),
        1,
        "surviving replica reports SyncStalled: {:?}",
        err.errors
    );
    if let WorkerError::SyncStalled { reason, .. } = stalled[0] {
        assert!(
            reason.contains("replica 1"),
            "reason names the lost peer: {reason}"
        );
    }
}

/// A replica whose partner died records the round it cannot finish as a
/// `Stalled` span on its own track.
#[test]
fn a_failed_round_is_a_stalled_span_on_the_survivor_track() {
    use pipedream_obs::SpanKind;
    let session = pipedream_obs::TraceSession::new();
    let snap = with_hard_timeout(Duration::from_secs(30), move || {
        let dir = tmpdir("stalled-span");
        let mut o = opts(1, &dir, false);
        o.checkpoint_dir = None;
        o.obs = Some(session.clone());
        // One stage on two replicas: replica 1 dies at its third forward,
        // so the round of minibatches 4 and 5 never completes.
        let hook: Arc<dyn FaultHook> = Arc::new(KillAt::replica(0, 1, 5));
        let config = PipelineConfig::data_parallel(8, 2);
        let data = blobs(256, 8, 4, 0.6, 7);
        assert!(try_train_pipeline(mlp(70), &config, &data, &o, Some(hook)).is_err());
        session.snapshot()
    });
    let survivor = snap
        .tracks
        .iter()
        .find(|t| t.name == "stage0.replica0")
        .expect("the survivor's track");
    assert!(
        survivor.events.iter().any(|e| e.kind == SpanKind::Stalled),
        "{:?}",
        survivor.events
    );
}

/// A receive timeout counts from when the wait for the message began, not
/// from the last message that came meanwhile. Stage 0 drops the first
/// activation of a GPipe group, then sends the group's other seven, each
/// after a delay of 60 % of the timeout: stage 1, waiting for the dropped
/// one, must report `Stalled` about one timeout after the drop. (Had
/// every later message restarted the clock, it would take 5.2 timeouts.)
#[test]
fn a_receive_timeout_runs_from_when_the_wait_began() {
    const TIMEOUT: Duration = Duration::from_millis(250);
    const DROPPED: u64 = 8;
    struct DropThenTrickle {
        dropped_at: Mutex<Option<Instant>>,
    }
    impl FaultHook for DropThenTrickle {
        fn on_forward_send(&self, stage: usize, mb: u64) -> SendAction {
            match (stage, mb) {
                (0, DROPPED) => {
                    *self.dropped_at.lock().unwrap() = Some(Instant::now());
                    SendAction::Drop
                }
                (0, mb) if mb > DROPPED && mb < DROPPED + 8 => SendAction::Delay(TIMEOUT * 3 / 5),
                _ => SendAction::Deliver,
            }
        }
        fn recv_timeout(&self) -> Option<Duration> {
            Some(TIMEOUT)
        }
    }
    let hook = Arc::new(DropThenTrickle {
        dropped_at: Mutex::new(None),
    });
    let dyn_hook: Arc<dyn FaultHook> = hook.clone();
    let err = with_hard_timeout(Duration::from_secs(30), move || {
        let data = blobs(256, 8, 4, 0.6, 7); // 16 minibatches an epoch
        let opts = TrainOpts {
            epochs: 1,
            batch: 16,
            semantics: Semantics::GPipe { microbatches: 8 },
            ..TrainOpts::default()
        };
        let config = PipelineConfig::straight(8, &[3]);
        match try_train_pipeline(mlp(70), &config, &data, &opts, Some(dyn_hook)) {
            Err(e) => e,
            Ok(_) => panic!("a dropped activation fails the run"),
        }
    });
    assert!(
        err.errors.contains(&WorkerError::Stalled {
            stage: 1,
            mb: DROPPED
        }),
        "{:?}",
        err.errors
    );
    let dropped_at = hook.dropped_at.lock().unwrap().expect("the drop fired");
    let waited = err.detected_at - dropped_at;
    assert!(
        waited >= TIMEOUT && waited < TIMEOUT * 3 / 2,
        "stalled {waited:?} after the drop, timeout {TIMEOUT:?}"
    );
}

/// A replica count that does not divide the run's minibatches must not
/// strand a replica in the last all_reduce (it used to wait out the sync
/// deadline and fail the run `SyncStalled`): whole rounds only, the ragged
/// tail dropped. A straight pipeline has no rounds and trains everything.
#[test]
fn ragged_tail_of_a_replicated_stage_is_dropped_not_hung() {
    /// Injects nothing; a 2 s sync deadline, so that a stranded replica
    /// fails the run well inside the watchdog.
    struct TightDeadline;
    impl FaultHook for TightDeadline {
        fn sync_deadline(&self) -> Option<Duration> {
            Some(Duration::from_secs(2))
        }
    }
    let small = |seed| {
        let mut r = rng(seed);
        Sequential::new("ragged")
            .push(Linear::new(8, 16, &mut r))
            .push(Tanh::new())
            .push(Linear::new(16, 4, &mut r))
    };
    let train = move |config: PipelineConfig| {
        let data = blobs(40, 8, 4, 0.6, 7); // 5 minibatches at batch 8
        let opts = TrainOpts {
            epochs: 1,
            batch: 8,
            ..TrainOpts::default()
        };
        let hook: Arc<dyn FaultHook> = Arc::new(TightDeadline);
        let (_, report) = try_train_pipeline(small(3), &config, &data, &opts, Some(hook))
            .expect("no replica is stranded until the deadline");
        report
    };
    let dp = with_hard_timeout(Duration::from_secs(20), move || {
        train(PipelineConfig::data_parallel(3, 2))
    });
    let ids: Vec<u64> = dp.per_minibatch.iter().map(|m| m.0).collect();
    assert_eq!(ids, vec![0, 1, 2, 3], "two whole rounds of two replicas");
    let straight = with_hard_timeout(Duration::from_secs(20), move || {
        train(PipelineConfig::straight(3, &[1]))
    });
    assert_eq!(straight.per_minibatch.len(), 5);
}

/// Minibatch-granularity checkpoints tighten the §4 redo bound: with
/// `checkpoint_every = 4` a kill at minibatch 22 resumes from the
/// mid-epoch dump at 20 minibatches done — 2 minibatches behind the fault
/// — instead of the epoch-0 boundary 6 minibatches back, and the resumed
/// run seeks the dataloader to the restored offset.
#[test]
fn mid_epoch_checkpoint_resume_seeks_dataloader() {
    let dir = tmpdir("mb-resume");
    let data = blobs(256, 8, 4, 0.6, 7); // 16 minibatches/epoch
    let config = PipelineConfig::straight(8, &[2, 5]); // 3 stages
    let mut o = opts(2, &dir, false);
    o.checkpoint_every = Some(4);
    let hook: Arc<dyn FaultHook> = Arc::new(KillAt::new(1, 22));

    let err = match try_train_pipeline(mlp(70), &config, &data, &o, Some(hook)) {
        Err(e) => e,
        Ok(_) => panic!("killed run must fail"),
    };
    assert!(err.errors[0].is_injected());

    // Checkpoints every 4 minibatches: after minibatches 3, 7, 11, 15
    // (epoch end), 19, … — the last one complete on every stage before the
    // kill at mb 22 is the one after mb 19 (epoch 1, within-epoch mb 3).
    assert_eq!(latest_complete(&dir, 3), Some(20));

    // Resume: what is left of epoch 1, starting at within-epoch
    // minibatch 4.
    let mut resumed_opts = opts(2, &dir, true);
    resumed_opts.checkpoint_every = Some(4);
    let (_, resumed) = try_train_pipeline(mlp(71), &config, &data, &resumed_opts, None)
        .expect("resumed run completes");
    let epochs: Vec<usize> = resumed.per_epoch.iter().map(|e| e.epoch).collect();
    assert_eq!(epochs, vec![1], "partial epoch keeps its numbering");
    // The partial epoch trains exactly the remaining 12 minibatches.
    assert_eq!(resumed.per_minibatch.len(), 12);
    // Its samples are the tail of the epoch the fresh run would see.
    assert_eq!(resumed.per_epoch[0].samples, 12 * 16);
    assert_eq!(resumed.per_minibatch[0].0, 20, "ids continue too");
    // Finishing the epoch writes its boundary checkpoint, the newest.
    assert_eq!(latest_complete(&dir, 3), Some(32));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a hook the fault path is dormant: training succeeds and the
/// report's control log holds no recovery record.
#[test]
fn unfaulted_run_has_no_recovery_record() {
    let dir = tmpdir("clean");
    let data = blobs(256, 8, 4, 0.6, 7);
    let config = PipelineConfig::straight(8, &[2, 5]);
    let (_, report) = try_train_pipeline(mlp(70), &config, &data, &opts(2, &dir, false), None)
        .expect("clean run succeeds");
    assert!(report.control_log.is_empty());
    assert_eq!(report.per_epoch.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `stage{s}_mb{done}.json` in `dir`, as `(stage, done)`, sorted.
fn dumps(dir: &std::path::Path) -> Vec<(usize, u64)> {
    let mut out: Vec<(usize, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let (stage, done) = name
                .strip_prefix("stage")?
                .strip_suffix(".json")?
                .split_once("_mb")?;
            Some((stage.parse().ok()?, done.parse().ok()?))
        })
        .collect();
    out.sort_unstable();
    out
}

/// A replicated stage dumps only where every gradient-sync round is
/// closed (`done` a multiple of the replica lcm), written by replica 0
/// once the round's all_reduce returns: every stage has a file at every
/// such point the interval names, none anywhere else, and each holds
/// exactly the minibatches before `done` — byte for byte what a run
/// drained there, which never trains past `done`, dumps.
#[test]
fn replicated_stages_checkpoint_at_every_aligned_done() {
    use pipedream_runtime::checkpoint::stage_path;
    use pipedream_runtime::RunControl;
    let data = blobs(256, 8, 4, 0.6, 7); // 16 minibatches/epoch
    let config = PipelineConfig::from_counts(&[(4, 2), (4, 1)]); // replica lcm 2
    for (k, want) in [
        (4, vec![4, 8, 12, 16, 20, 24, 28, 32]),
        // Within-epoch multiples of 3 plus the epoch ends, odd ones skipped.
        (3, vec![6, 12, 16, 22, 28, 32]),
    ] {
        let dir = tmpdir(&format!("replicated-k{k}"));
        let mut o = opts(2, &dir, false);
        o.checkpoint_every = Some(k);
        try_train_pipeline(mlp(70), &config, &data, &o, None).expect("clean run");
        let files = dumps(&dir);
        for stage in 0..2 {
            let dones: Vec<u64> = files.iter().filter(|f| f.0 == stage).map(|f| f.1).collect();
            assert_eq!(dones, want, "stage {stage}, checkpoint_every {k}");
        }
        assert_eq!(latest_complete(&dir, 2), Some(32));
        if k == 4 {
            // The dump at 20 holds minibatches 0..20 exactly: a run
            // drained at 20 writes the same bytes.
            let cut_dir = tmpdir("replicated-cut");
            let gate = Arc::new(RunControl::new());
            gate.drain_at(20);
            let mut cut = opts(2, &cut_dir, false);
            cut.control = Some(gate);
            let (_, report) =
                try_train_pipeline(mlp(70), &config, &data, &cut, None).expect("drained run");
            assert_eq!(report.drained_at, Some(20));
            for stage in 0..2 {
                let [whole, drained] = [&dir, &cut_dir]
                    .map(|d| std::fs::read(stage_path(d, stage, 20)).expect("dump exists"));
                assert!(whole == drained, "stage {stage}'s dumps at 20 differ");
            }
            let _ = std::fs::remove_dir_all(&cut_dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
