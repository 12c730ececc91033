//! Seeded interleavings: a run whose workers are stepped in an order drawn
//! from a seed, on any number of threads from one to one per worker,
//! trains bit for bit like the default run — the same loss at every
//! minibatch, the same weight versions, the same final weights — and, where
//! `tests/delayed_sgd_oracle.rs` has the row, like the §3.3 delayed-SGD
//! recurrence.

use super::Stepping;
use crate::trainer::{train_stepped, TrainError};
use crate::{train_delayed_sgd, OptimKind, Semantics, TrainOpts, TrainReport};
use pipedream_core::{PipelineConfig, ScheduleKind};
use pipedream_tensor::data::{blobs, Dataset};
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Scale, Tanh};
use pipedream_tensor::{Layer, Sequential};

const SEEDS: u64 = 8;

fn mlp() -> Sequential {
    let mut r = rng(23);
    Sequential::new("mlp8")
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

fn opts(schedule: ScheduleKind) -> TrainOpts {
    TrainOpts {
        epochs: 2,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.9,
        },
        semantics: Semantics::Stashed,
        schedule,
        ..TrainOpts::default()
    }
}

/// `"2-2-1"` → the 8-layer model split into stages on those replica counts.
fn replicated(pattern: &str) -> PipelineConfig {
    let replicas: Vec<usize> = pattern.split('-').map(|r| r.parse().unwrap()).collect();
    let mut counts: Vec<(usize, usize)> =
        replicas.iter().map(|&r| (8 / replicas.len(), r)).collect();
    counts.last_mut().unwrap().0 += 8 % replicas.len();
    PipelineConfig::from_counts(&counts)
}

/// What a run computed, as bits.
#[derive(Debug, PartialEq)]
struct Bits {
    losses: Vec<(u64, u32)>,
    versions: Vec<(u64, usize, u64)>,
    weights: Vec<Vec<u32>>,
}

fn bits(model: &Sequential, report: &TrainReport) -> Bits {
    Bits {
        losses: report
            .per_minibatch
            .iter()
            .map(|&(mb, l)| (mb, l.to_bits()))
            .collect(),
        versions: report
            .version_trace
            .iter()
            .map(|r| (r.mb, r.stage, r.version))
            .collect(),
        weights: model
            .snapshot()
            .iter()
            .map(|t| t.data().iter().map(|w| w.to_bits()).collect())
            .collect(),
    }
}

#[allow(clippy::result_large_err)]
fn run(
    config: &PipelineConfig,
    opts: &TrainOpts,
    stepping: Stepping,
) -> Result<(Sequential, TrainReport), TrainError> {
    train_stepped(mlp(), config, &data(), opts, None, stepping)
}

/// Run the walk on a helper thread and fail if it has not finished in ten
/// minutes (it takes about 1.5 s in a release build, 45 s in a debug
/// one): a stepping bug that leaves every worker waiting must fail the
/// test, not hang it.
#[test]
fn every_interleaving_trains_the_default_run_bit_for_bit() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        every_interleaving();
        let _ = done.send(());
    });
    match finished.recv_timeout(std::time::Duration::from_secs(600)) {
        Ok(()) => {}
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("a stepped run hung"),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            panic!("a stepped run differs from the default run (see the panic above)")
        }
    }
}

fn every_interleaving() {
    let configs = [
        ("2-stage", PipelineConfig::straight(8, &[3]), true),
        ("3-stage", PipelineConfig::straight(8, &[2, 5]), false),
        ("4-stage", PipelineConfig::straight(8, &[1, 3, 5]), true),
        ("2-1", replicated("2-1"), true),
        ("2-2", replicated("2-2"), true),
        ("1-2-1", replicated("1-2-1"), true),
        ("2-2-1", replicated("2-2-1"), true),
        ("3-1", replicated("3-1"), true),
    ];
    for (name, config, oracle_row) in &configs {
        let workers = config.total_workers();
        for kind in ScheduleKind::all() {
            let opts = opts(kind);
            let what = format!("{name} {kind}");
            let (model, report) = match run(config, &opts, Stepping::default()) {
                Ok(out) => out,
                Err(e) => {
                    // A refused run is refused however it would be stepped.
                    let stepped = run(
                        config,
                        &opts,
                        Stepping {
                            threads: Some(1),
                            seed: Some(0),
                        },
                    );
                    assert_eq!(stepped.err().map(|e| e.errors), Some(e.errors), "{what}");
                    continue;
                }
            };
            let want = bits(&model, &report);
            assert!(!want.losses.is_empty(), "{what}: trained nothing");
            // The oracle has every straight row under every kind but the
            // 3-stage one, and the replicated rows under vanilla 1F1B.
            let vanilla = kind == ScheduleKind::Vanilla1F1B;
            if *oracle_row && (vanilla || name.ends_with("stage")) {
                let (oracle, losses) = train_delayed_sgd(mlp(), config, &data(), &opts);
                let oracle_losses: Vec<(u64, u32)> =
                    losses.iter().map(|&(mb, l)| (mb, l.to_bits())).collect();
                assert_eq!(
                    want.losses, oracle_losses,
                    "{what}: losses against the oracle"
                );
                assert_eq!(
                    want.weights,
                    bits(&oracle, &TrainReport::default()).weights,
                    "{what}: weights against the oracle"
                );
            }
            for threads in 1..=workers {
                for seed in 0..SEEDS {
                    let stepping = Stepping {
                        threads: Some(threads),
                        seed: Some(seed),
                    };
                    let (model, report) = run(config, &opts, stepping).unwrap_or_else(|e| {
                        panic!("{what}, {threads} thread(s), seed {seed}: {e}")
                    });
                    assert_eq!(report.threads, threads, "{what}");
                    assert!(
                        bits(&model, &report) == want,
                        "{what}, {threads} thread(s), seed {seed}: differs from the default run"
                    );
                }
            }
        }
    }
}
