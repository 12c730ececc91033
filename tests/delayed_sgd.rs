//! §3.3's validity claim, stated exactly: a pipelined run computes the
//! delayed-SGD recurrence `w(t+1) = w(t) − ν·∇f(w₁(t−τ₁), …, wₙ(t−τₙ))`
//! with the delays of `pipedream::core::stash::staleness`, bit for bit.
//! Four rows of the runtime's table (`crates/runtime/tests/
//! delayed_sgd_oracle.rs` holds the rest): weight stashing, vertical sync
//! and 2BW on four stages, and data parallelism on four replicas.

use pipedream::core::stash::ScheduleKind;
use pipedream::core::PipelineConfig;
use pipedream::runtime::{train_delayed_sgd, train_pipeline, OptimKind, Semantics, TrainOpts};
use pipedream::tensor::data::blobs;
use pipedream::tensor::init::rng;
use pipedream::tensor::layers::{Linear, Relu, Scale, Tanh};
use pipedream::tensor::{Layer, Sequential};

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

/// One epoch of 16 minibatches of `config` under `semantics` and
/// `schedule`, pipelined and by the recurrence; panics at the first bit
/// that differs.
fn assert_matches_recurrence(config: PipelineConfig, semantics: Semantics, schedule: ScheduleKind) {
    let data = blobs(256, 8, 4, 0.6, 7);
    let opts = TrainOpts {
        epochs: 1,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.9,
        },
        semantics,
        schedule,
        ..TrainOpts::default()
    };
    let (piped, report) = train_pipeline(mlp(), &config, &data, &opts);
    let (oracle, losses) = train_delayed_sgd(mlp(), &config, &data, &opts);
    assert_eq!(report.per_minibatch.len(), losses.len());
    for (&(mb, got), &(_, want)) in report.per_minibatch.iter().zip(&losses) {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "minibatch {mb}: {got} vs {want}"
        );
    }
    for (i, (got, want)) in piped.snapshot().iter().zip(&oracle.snapshot()).enumerate() {
        let bits = |t: &[f32]| t.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert!(
            bits(got.data()) == bits(want.data()),
            "parameter tensor {i}"
        );
    }
}

fn four_stages() -> PipelineConfig {
    PipelineConfig::straight(8, &[1, 3, 5])
}

#[test]
fn weight_stashing_is_delayed_sgd() {
    // Stage s runs minibatch t under the weights after t − (n − 1 − s)
    // updates, both passes.
    assert_matches_recurrence(four_stages(), Semantics::Stashed, ScheduleKind::Vanilla1F1B);
}

#[test]
fn vertical_sync_is_delayed_sgd() {
    // Every stage runs minibatch t under the version the input stage
    // pinned: t − (n − 1) updates.
    assert_matches_recurrence(
        four_stages(),
        Semantics::VerticalSync,
        ScheduleKind::Vanilla1F1B,
    );
}

#[test]
fn two_bw_is_delayed_sgd() {
    // One update per group of 4; group g runs under generation g − 1.
    assert_matches_recurrence(four_stages(), Semantics::Stashed, ScheduleKind::TwoBW);
}

#[test]
fn data_parallelism_is_bsp() {
    // One stage on 4 replicas: each round averages 4 minibatches'
    // gradients, summed in replica order, under the same weights.
    assert_matches_recurrence(
        PipelineConfig::data_parallel(8, 4),
        Semantics::Stashed,
        ScheduleKind::Vanilla1F1B,
    );
}
