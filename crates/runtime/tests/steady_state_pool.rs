//! The buffer pool's promise, held from outside the crate: warm-up may
//! allocate, a pipeline in steady state may not — for the four ways
//! weights are versioned and gradients move. The count is
//! `pipedream_tensor::pool`'s miss counter, which is process-wide: hence
//! one `#[test]` in this file, for all configurations.

use pipedream_core::stash::ScheduleKind;
use pipedream_core::PipelineConfig;
use pipedream_runtime::trainer::train_pipeline;
use pipedream_runtime::{Semantics, TrainOpts};
use pipedream_tensor::data::{blobs, Dataset};
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Scale, Tanh};
use pipedream_tensor::{pool, Sequential};

fn mlp(seed: u64) -> Sequential {
    let mut r = rng(seed);
    Sequential::new("pool-mlp")
        .push(Linear::new(8, 32, &mut r))
        .push(Tanh::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Relu::new())
        .push(Linear::new(32, 32, &mut r))
        .push(Tanh::new())
        .push(Scale::new(32))
        .push(Linear::new(32, 4, &mut r))
}

/// 16 minibatches of 16 samples per epoch.
fn data() -> Dataset {
    blobs(256, 8, 4, 0.6, 7)
}

/// Pool misses of one whole `train_pipeline` call over `epochs` epochs.
fn misses(config: &PipelineConfig, opts: &TrainOpts, epochs: usize) -> u64 {
    let model = mlp(3);
    let opts = TrainOpts {
        epochs,
        ..opts.clone()
    };
    let before = pool::global_stats().misses;
    train_pipeline(model, config, &data(), &opts);
    pool::global_stats().misses - before
}

#[test]
fn a_pipeline_in_steady_state_takes_nothing_from_the_allocator() {
    let stashed = TrainOpts {
        batch: 16,
        ..TrainOpts::default()
    };
    let cases = [
        (
            "2-stage vanilla",
            PipelineConfig::straight(8, &[3]),
            stashed.clone(),
        ),
        (
            "3-stage vertical sync",
            PipelineConfig::straight(8, &[2, 5]),
            TrainOpts {
                semantics: Semantics::VerticalSync,
                ..stashed.clone()
            },
        ),
        (
            "2-replica 2BW + recompute",
            PipelineConfig::data_parallel(8, 2),
            TrainOpts {
                schedule: ScheduleKind::TwoBWRecompute,
                ..stashed.clone()
            },
        ),
        (
            "2-stage x 2-replica vanilla",
            PipelineConfig::from_counts(&[(4, 2), (4, 2)]),
            stashed.clone(),
        ),
    ];
    for (name, config, opts) in &cases {
        // N = 32 minibatches, then 2N: everything the second half of the
        // longer run needs, the first half has left in the pools.
        let (n, two_n) = (misses(config, opts, 2), misses(config, opts, 4));
        assert!(n > 0, "{name}: warm-up allocates, or nothing is counted");
        assert_eq!(
            two_n,
            n,
            "{name}: minibatches 32..64 missed the pool {} time(s)",
            two_n as i64 - n as i64
        );
    }
}
