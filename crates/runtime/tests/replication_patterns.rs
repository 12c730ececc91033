//! Which replication patterns the trainer runs, and which it refuses.
//!
//! The 1F1B-RR schedule generator knows nothing of the gradient all_reduce
//! that couples a replicated stage's backwards, so under some patterns a
//! replica's backward waits in its sync round for a partner whose forward
//! the upstream stage schedules after a backward that waits on that very
//! round. `try_train_pipeline` dry-runs the op lists first and refuses
//! those runs with a typed error instead of hanging. The table holds with
//! no fault injected, under every `ScheduleKind`, on a 6-layer MLP and 64
//! minibatches: it is not "a stage with more replicas than its
//! predecessor" (`1-4` and `1-2-1` train).

use pipedream_core::schedule::Op;
use pipedream_core::{PipelineConfig, ScheduleKind};
use pipedream_runtime::trainer::try_train_pipeline;
use pipedream_runtime::{OptimKind, Semantics, TrainError, TrainOpts, TrainReport, WorkerError};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Tanh};
use pipedream_tensor::Sequential;
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// Patterns whose schedule blocks for good, with the op the input stage's
/// worker would wait on forever.
const REFUSED: [(&str, Op); 5] = [
    ("1-2", Op::Backward { mb: 2 }),
    ("1-3", Op::Backward { mb: 3 }),
    ("2-4", Op::Backward { mb: 4 }),
    ("1-1-2", Op::Backward { mb: 2 }),
    ("1-2-2", Op::Backward { mb: 4 }),
];

/// Patterns that train, with a hash of every minibatch's loss bits under
/// `vanilla` and under `2bw`, taken before the trainer dry-ran anything.
/// The recompute kinds train bit for bit like their counterparts.
const TRAINED: [(&str, u64, u64); 5] = [
    ("2-1", 0xa991_84be_ff1a_b53f, 0x56dc_0c9a_2ec3_c7e4),
    ("2-2", 0x4731_f160_e832_2c5f, 0x2656_73e0_9663_b51e),
    ("2-3", 0x5063_af03_43a0_1f0a, 0xa9f1_0aff_ca52_3d74),
    ("1-4", 0x9415_4a42_1d5e_1dd3, 0x4527_3dc3_624a_d60e),
    ("1-2-1", 0xc010_c957_d71b_d6c5, 0x58aa_3ec5_b7e8_d5b0),
];

fn mlp() -> Sequential {
    let mut r = rng(3);
    Sequential::new("patterns")
        .push(Linear::new(8, 16, &mut r))
        .push(Tanh::new())
        .push(Linear::new(16, 16, &mut r))
        .push(Relu::new())
        .push(Linear::new(16, 4, &mut r))
        .push(Tanh::new())
}

/// `"1-2"` → two stages of three layers, on 1 and 2 replicas.
fn config(pattern: &str) -> PipelineConfig {
    let replicas: Vec<usize> = pattern.split('-').map(|r| r.parse().unwrap()).collect();
    let per = 6 / replicas.len();
    let counts: Vec<(usize, usize)> = replicas.iter().map(|&r| (per, r)).collect();
    PipelineConfig::from_counts(&counts)
}

/// Train `pattern` under `kind` on a helper thread; fail the test if that
/// takes longer than `limit` — a hang must fail the run, not wedge it.
fn train(
    pattern: &str,
    kind: ScheduleKind,
    limit: Duration,
) -> (Result<TrainReport, TrainError>, Duration) {
    let config = config(pattern);
    let opts = TrainOpts {
        epochs: 1,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        schedule: kind,
        ..TrainOpts::default()
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let started = Instant::now();
    let run = std::thread::spawn(move || {
        let data = blobs(64 * 16, 8, 4, 0.6, 7);
        let result = try_train_pipeline(mlp(), &config, &data, &opts, None);
        let _ = tx.send(result.map(|(_, report)| report));
    });
    match rx.recv_timeout(limit) {
        Ok(result) => {
            let took = started.elapsed();
            run.join().expect("sent its result");
            (result, took)
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("{pattern} under {kind} still running after {limit:?}")
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(run.join().expect_err("died without a result"))
        }
    }
}

fn loss_hash(report: &TrainReport) -> u64 {
    report.per_minibatch.iter().fold(0u64, |h, &(_, loss)| {
        h.wrapping_mul(1_000_003) ^ loss.to_bits() as u64
    })
}

#[test]
fn stuck_patterns_are_refused_within_a_second() {
    for (pattern, op) in REFUSED {
        for kind in ScheduleKind::all() {
            let (result, took) = train(pattern, kind, Duration::from_secs(10));
            let err = result.expect_err("a stuck schedule must be refused");
            assert!(took < Duration::from_secs(1), "{pattern} {kind}: {took:?}");
            assert_eq!(
                err.errors[0],
                WorkerError::ScheduleStuck {
                    stage: 0,
                    replica: 0,
                    op
                },
                "{pattern} {kind}"
            );
            // Every worker that cannot finish is named, each with its op:
            // at least the first replicated stage's replicas.
            let replicated = config(pattern)
                .stages()
                .iter()
                .position(|s| s.replicas > 1)
                .unwrap();
            let named: Vec<usize> = err
                .errors
                .iter()
                .map(|e| match e {
                    WorkerError::ScheduleStuck { stage, .. } => *stage,
                    other => panic!("{pattern} {kind}: {other}"),
                })
                .filter(|&s| s == replicated)
                .collect();
            assert_eq!(
                named.len(),
                config(pattern).stages()[replicated].replicas,
                "{pattern} {kind}: {err}"
            );
            assert!(err.partial.per_minibatch.is_empty(), "nothing ran");
        }
    }
}

#[test]
fn other_patterns_train_as_before() {
    for (pattern, vanilla, two_bw) in TRAINED {
        let mut hashes = Vec::new();
        for kind in ScheduleKind::all() {
            let (result, _) = train(pattern, kind, Duration::from_secs(60));
            let report = result.unwrap_or_else(|e| panic!("{pattern} {kind}: {e}"));
            let want = 64 - 64 % config(pattern).replica_lcm() as usize;
            assert_eq!(report.per_minibatch.len(), want, "{pattern} {kind}");
            hashes.push(loss_hash(&report));
        }
        // vanilla, 2bw, recompute, 2bw-recompute.
        assert_eq!(hashes[2], hashes[0], "{pattern}: recompute = vanilla");
        assert_eq!(hashes[3], hashes[1], "{pattern}: 2bw-recompute = 2bw");
        // The pinned bits were taken with fused multiply-adds in the GEMM;
        // without them the kernel rounds differently.
        if cfg!(target_feature = "fma") {
            assert_eq!(hashes[0], vanilla, "{pattern} vanilla: {:#x}", hashes[0]);
            assert_eq!(hashes[1], two_bw, "{pattern} 2bw: {:#x}", hashes[1]);
        }
    }
}
