//! Differential test battery for the memory-efficient schedules: each
//! schedule's loss trajectory is pinned against an explicitly-computed
//! reference, so a semantics regression shows up as a bit flip, not a
//! convergence anecdote.
//!
//! - Recomputation is a pure memory/time trade: re-running the forward
//!   pass from the saved stage input under the stashed weights rebuilds
//!   the exact activations the first pass produced, so Recompute must be
//!   **bit-identical** to Vanilla1F1B.
//! - PipeDream-2BW changes the update rule: one averaged update per group
//!   of NOAM minibatches, every pass in group `g` running against
//!   generation `max(g−1, 0)`. That is delayed minibatch SGD with exactly
//!   two live weight versions — small enough to re-derive longhand on the
//!   full unpartitioned model and compare bit-for-bit.

use pipedream_core::stash::ScheduleKind;
use pipedream_core::PipelineConfig;
use pipedream_runtime::trainer::train_pipeline;
use pipedream_runtime::{LrSchedule, OptimKind, Semantics, TrainData, TrainOpts};
use pipedream_tensor::data::{blobs, Dataset};
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Dropout, Linear, Relu, Scale, Tanh};
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

fn easy_data() -> Dataset {
    blobs(256, 8, 4, 0.6, 7)
}

fn sched_opts(epochs: usize, schedule: ScheduleKind) -> TrainOpts {
    TrainOpts {
        epochs,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        schedule,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        depth: None,
        obs: None,
        ..TrainOpts::default()
    }
}

fn assert_same_losses(a: &[(u64, f32)], b: &[(u64, f32)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: minibatch count");
    for (&(mb_a, loss_a), &(mb_b, loss_b)) in a.iter().zip(b.iter()) {
        assert_eq!(mb_a, mb_b);
        assert_eq!(loss_a, loss_b, "{what}: loss diverged at minibatch {mb_a}");
    }
}

fn assert_same_weights(a: &Sequential, b: &Sequential, what: &str) {
    let (sa, sb) = (a.snapshot(), b.snapshot());
    assert_eq!(sa.len(), sb.len());
    for (i, (x, y)) in sa.iter().zip(sb.iter()).enumerate() {
        assert_eq!(
            x.data(),
            y.data(),
            "{what}: parameter tensor {i} diverged bitwise"
        );
    }
}

#[test]
fn recompute_is_bit_identical_to_vanilla_1f1b() {
    // Rebuilt activations are the same floats, so every loss and every
    // final parameter must match the vanilla run exactly.
    let data = easy_data();
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (m_van, van) = train_pipeline(
        mlp(21),
        &config,
        &data,
        &sched_opts(3, ScheduleKind::Vanilla1F1B),
    );
    let (m_rec, rec) = train_pipeline(
        mlp(21),
        &config,
        &data,
        &sched_opts(3, ScheduleKind::Recompute),
    );
    assert_same_losses(&van.per_minibatch, &rec.per_minibatch, "recompute");
    assert_same_weights(&m_van, &m_rec, "recompute");
}

#[test]
fn recompute_is_bit_identical_under_dropout() {
    // The hard case: dropout masks are seeded per (layer, minibatch), so
    // the recomputation pass must regenerate the identical mask or the
    // rebuilt activations silently drift.
    let build = || {
        let mut r = rng(77);
        Sequential::new("drop")
            .push(Linear::new(8, 32, &mut r))
            .push(Relu::new())
            .push(Dropout::new(0.3, 123))
            .push(Linear::new(32, 32, &mut r))
            .push(Tanh::new())
            .push(Linear::new(32, 4, &mut r))
    };
    let data = easy_data();
    let config = PipelineConfig::straight(6, &[2, 4]);
    let (m_van, van) = train_pipeline(
        build(),
        &config,
        &data,
        &sched_opts(3, ScheduleKind::Vanilla1F1B),
    );
    let (m_rec, rec) = train_pipeline(
        build(),
        &config,
        &data,
        &sched_opts(3, ScheduleKind::Recompute),
    );
    assert_same_losses(&van.per_minibatch, &rec.per_minibatch, "dropout recompute");
    assert_same_weights(&m_van, &m_rec, "dropout recompute");
}

#[test]
fn recompute_composes_with_2bw_bit_identically() {
    // Recomputation is orthogonal to the update rule: TwoBWRecompute must
    // reproduce TwoBW exactly, just as Recompute reproduces vanilla.
    let data = easy_data();
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (m_a, a) = train_pipeline(mlp(22), &config, &data, &sched_opts(2, ScheduleKind::TwoBW));
    let (m_b, b) = train_pipeline(
        mlp(22),
        &config,
        &data,
        &sched_opts(2, ScheduleKind::TwoBWRecompute),
    );
    assert_same_losses(&a.per_minibatch, &b.per_minibatch, "2bw recompute");
    assert_same_weights(&m_a, &m_b, "2bw recompute");
}

/// Longhand PipeDream-2BW reference on the full unpartitioned model:
/// delayed minibatch SGD with group-granular updates.
///
/// Generation `k` is the weights after `k` group updates (generation 0 is
/// the initialization). Every minibatch of group `g` runs forward AND
/// backward against generation `max(g−1, 0)`; at the end of the group the
/// accumulated gradient is averaged and applied to the *latest* weights:
///
///   W_{g+1} = W_g − lr · mean_{mb ∈ group g} ∇f(W_{max(g−1,0)}; mb)
///
/// Returns the per-minibatch losses (computed under the pinned
/// generation, exactly like the pipeline's output stage) and the final
/// model.
fn two_bw_reference(
    mut model: Sequential,
    dataset: &Dataset,
    opts: &TrainOpts,
    group: u64,
) -> (Sequential, Vec<(u64, f32)>) {
    let data = TrainData::new(dataset.clone(), opts.batch);
    let total = (opts.epochs * data.minibatches_per_epoch()) as u64;
    assert!(
        total.is_multiple_of(group),
        "reference assumes no partial trailing group ({total} mbs, group {group})"
    );
    let mut optimizer = opts.optim.build();
    optimizer.set_learning_rate(opts.optim.base_lr());
    // Pinned generation for the current group: max(g−1, 0). Group 0 and
    // group 1 both pin generation 0 (the initialization).
    let mut pinned: Vec<Tensor> = model.snapshot();
    let mut losses = Vec::with_capacity(total as usize);
    for g in 0..total / group {
        // The model currently holds the latest generation g; stash it so
        // the update applies there while passes run under the pin.
        let latest = model.snapshot();
        model.restore(&pinned);
        model.zero_grad();
        for mb in g * group..(g + 1) * group {
            let x = data.input(mb);
            let out = model.forward(&x, mb);
            let loss = softmax_cross_entropy(&out, data.labels(mb));
            model.backward(&loss.grad, mb);
            losses.push((mb, loss.loss));
        }
        let scale = 1.0 / group as f32;
        for p in model.params_mut() {
            p.grad.scale_inplace(scale);
        }
        model.restore(&latest);
        let mut params = model.params_mut();
        optimizer.step(&mut params);
        drop(params);
        // The next group (g+1) pins generation g — the pre-update weights.
        pinned = latest;
    }
    (model, losses)
}

#[test]
fn two_bw_matches_the_delayed_sgd_reference_bitwise() {
    // The pipeline's 2BW run across 4 stages must equal the longhand
    // 2-version delayed-SGD recurrence on the whole model: same loss at
    // every minibatch, same final parameters, bit for bit.
    let data = easy_data();
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let opts = sched_opts(2, ScheduleKind::TwoBW);
    // Group = NOAM lifted to the replica LCM; no replicas here, so 4.
    let group = config.noam() as u64;
    assert_eq!(group, 4);
    let (m_pipe, pipe) = train_pipeline(mlp(23), &config, &data, &opts);
    let (m_ref, ref_losses) = two_bw_reference(mlp(23), &data, &opts, group);
    assert_same_losses(&pipe.per_minibatch, &ref_losses, "2bw vs reference");
    assert_same_weights(&m_pipe, &m_ref, "2bw vs reference");
}

#[test]
fn two_bw_differs_from_vanilla_but_still_learns() {
    // Sanity on the differential itself: 2BW is a *different* update rule
    // (fewer, group-averaged updates), so its trajectory must NOT match
    // vanilla — and it must still fit the easy dataset.
    use pipedream_runtime::trainer::evaluate;
    let data = easy_data();
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let (_, van) = train_pipeline(
        mlp(24),
        &config,
        &data,
        &sched_opts(8, ScheduleKind::Vanilla1F1B),
    );
    let (mut m, two) = train_pipeline(mlp(24), &config, &data, &sched_opts(8, ScheduleKind::TwoBW));
    let diverged = van
        .per_minibatch
        .iter()
        .zip(two.per_minibatch.iter())
        .any(|(a, b)| a.1 != b.1);
    assert!(diverged, "2BW must not silently degenerate to vanilla");
    let acc = evaluate(&mut m, &data, 16);
    assert!(acc > 0.9, "2BW accuracy {acc}");
}
