//! The reference trainer: single-worker minibatch SGD.
//!
//! The paper's other baselines are configurations of the pipeline trainer,
//! not trainers of their own: BSP data parallelism is one stage on `n`
//! replicas under 1F1B-RR (`PipelineConfig::data_parallel`;
//! `tests/pipeline_training.rs` holds it to this reference at batch
//! `n · b`), GPipe is [`crate::Semantics::GPipe`].

use crate::report::{EpochStats, TrainReport};
use crate::trainer::TrainOpts;
use pipedream_tensor::data::Dataset;
use pipedream_tensor::{softmax_cross_entropy, Layer, Sequential};
use std::time::Instant;

/// Reference single-worker minibatch SGD — the semantics every other mode
/// is compared against.
pub fn train_sequential(
    mut model: Sequential,
    dataset: &Dataset,
    opts: &TrainOpts,
) -> (Sequential, TrainReport) {
    let started = Instant::now();
    let mut optimizer = opts.optim.build();
    let mut per_epoch = Vec::with_capacity(opts.epochs);
    let mbs = dataset.num_minibatches(opts.batch);
    for epoch in 0..opts.epochs {
        optimizer.set_learning_rate(opts.lr_schedule.lr_at(opts.optim.base_lr(), epoch));
        let mut loss_sum = 0.0f64;
        let mut correct = 0usize;
        let mut count = 0usize;
        for i in 0..mbs {
            let (x, y) = dataset.minibatch(i, opts.batch);
            let out = model.forward(&x, i as u64);
            let loss = softmax_cross_entropy(&out, &y);
            model.zero_grad();
            model.backward_params(&loss.grad, i as u64);
            let mut params = model.params_mut();
            optimizer.step(&mut params);
            loss_sum += loss.loss as f64 * y.len() as f64;
            correct += loss.correct;
            count += y.len();
        }
        per_epoch.push(EpochStats {
            epoch,
            loss: (loss_sum / count.max(1) as f64) as f32,
            accuracy: correct as f32 / count.max(1) as f32,
            samples: count,
        });
    }
    (
        model,
        TrainReport {
            per_epoch,
            wall_time_s: started.elapsed().as_secs_f64(),
            ..Default::default()
        },
    )
}
