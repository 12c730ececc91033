//! Vertical sync (§3.3) pinned against a longhand reference on the whole,
//! unpartitioned model, bit for bit.
//!
//! Minibatch `t` is tagged at the input stage with the number of updates
//! that stage has applied, `v(t) = max(t − (n−1), 0)` in an `n`-stage 1F1B
//! pipeline, and every stage runs both of its passes under *its own*
//! version `v(t)`. Each stage then applies the update to its **live**
//! weights, in minibatch order. Since version `k` is "after minibatches
//! `0..k`" at every stage, that is delayed SGD on the whole model:
//!
//!   W(t+1) = W(t) − lr · ∇f(W(v(t)); minibatch t)
//!
//! (The worker used to take "live" to be whatever the last forward had
//! left in the model, i.e. `W(v(t'))` for a later `t'`, so a downstream
//! stage's update overwrote the ones before it.)

use pipedream_core::PipelineConfig;
use pipedream_runtime::trainer::train_pipeline;
use pipedream_runtime::{OptimKind, Semantics, TrainData, TrainOpts};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Scale, Tanh};
use pipedream_tensor::{softmax_cross_entropy, Layer, Sequential, Tensor};

fn mlp(seed: u64) -> Sequential {
    let mut r = rng(seed);
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

#[test]
fn vertical_sync_matches_the_delayed_sgd_reference_bitwise() {
    let dataset = blobs(256, 8, 4, 0.6, 7);
    let opts = TrainOpts {
        epochs: 2,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::VerticalSync,
        ..TrainOpts::default()
    };
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let n = config.num_stages() as u64;
    let (trained, report) = train_pipeline(mlp(23), &config, &dataset, &opts);

    let mut model = mlp(23);
    let data = TrainData::new(dataset.clone(), opts.batch);
    let total = (opts.epochs * data.minibatches_per_epoch()) as u64;
    let mut optimizer = opts.optim.build();
    let mut versions: Vec<Vec<Tensor>> = vec![model.snapshot()];
    for t in 0..total {
        let live = model.snapshot();
        model.restore(&versions[t.saturating_sub(n - 1) as usize]);
        model.zero_grad();
        let out = model.forward(&data.input(t), t);
        let loss = softmax_cross_entropy(&out, data.labels(t));
        model.backward(&loss.grad, t);
        assert_eq!(
            report.per_minibatch[t as usize],
            (t, loss.loss),
            "loss of minibatch {t} (bits {:#x} vs {:#x})",
            report.per_minibatch[t as usize].1.to_bits(),
            loss.loss.to_bits()
        );
        model.restore(&live);
        optimizer.step(&mut model.params_mut());
        versions.push(model.snapshot());
    }
    assert_eq!(trained.snapshot(), model.snapshot(), "final weights");
}
