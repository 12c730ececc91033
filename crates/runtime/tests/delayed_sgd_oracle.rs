//! Every pipelined semantics against its §3.3 recurrence, bit for bit.
//!
//! §3.3 writes each scheme as `w(t+1) = w(t) − ν·∇f(w₁(t−τ₁), …, wₙ(t−τₙ))`.
//! `train_delayed_sgd` runs that recurrence on one thread, with the delays
//! of `pipedream_core::stash::staleness`; each row below trains a
//! configuration with the threaded pipeline and with the recurrence, and
//! asks for the same loss at every minibatch and the same final
//! parameters, bit for bit. Activation recomputation must leave every bit
//! where it was, so the recompute kinds are rows of their own. Naive
//! pipelining follows no such recurrence: its test measures how far it
//! strays from the stashed one.
//!
//! Four rows, the 4-stage stashed, vertical-sync and 2BW ones and data
//! parallelism, are in the root package's `tests/delayed_sgd.rs`, which
//! every `cargo test` at the root runs.

use pipedream_core::stash::ScheduleKind;
use pipedream_core::PipelineConfig;
use pipedream_runtime::trainer::{evaluate, train_pipeline};
use pipedream_runtime::{train_delayed_sgd, OptimKind, Semantics, TrainOpts};
use pipedream_tensor::data::{blobs, Dataset};
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Dropout, Linear, Relu, Scale, Tanh};
use pipedream_tensor::{Layer, Sequential};

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

/// Dropout masks are seeded per (layer, minibatch): a recomputed forward
/// must draw the mask its first forward drew.
fn dropout_mlp() -> Sequential {
    let mut r = rng(77);
    Sequential::new("drop")
        .push(Linear::new(8, 32, &mut r))
        .push(Relu::new())
        .push(Dropout::new(0.3, 123))
        .push(Linear::new(32, 32, &mut r))
        .push(Tanh::new())
        .push(Linear::new(32, 4, &mut r))
}

fn data() -> Dataset {
    blobs(256, 8, 4, 0.6, 7)
}

fn opts(semantics: Semantics, schedule: ScheduleKind) -> TrainOpts {
    TrainOpts {
        epochs: 2,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.9,
        },
        semantics,
        schedule,
        ..TrainOpts::default()
    }
}

/// `"2-2-1"` → an 8-layer split into stages on those replica counts.
fn replicated(pattern: &str) -> PipelineConfig {
    let replicas: Vec<usize> = pattern.split('-').map(|r| r.parse().unwrap()).collect();
    let mut counts: Vec<(usize, usize)> =
        replicas.iter().map(|&r| (8 / replicas.len(), r)).collect();
    counts.last_mut().unwrap().0 += 8 % replicas.len();
    PipelineConfig::from_counts(&counts)
}

/// A row: its name, the model, the configuration, the options.
type Row = (&'static str, fn() -> Sequential, PipelineConfig, TrainOpts);

/// Train `config` both ways; panic at the first bit that differs.
fn assert_matches_recurrence(
    what: &str,
    model: fn() -> Sequential,
    config: &PipelineConfig,
    opts: &TrainOpts,
) {
    let (piped, report) = train_pipeline(model(), config, &data(), opts);
    let (oracle, losses) = train_delayed_sgd(model(), config, &data(), opts);
    assert_eq!(
        report.per_minibatch.len(),
        losses.len(),
        "{what}: minibatches"
    );
    for (&(mb, got), &(_, want)) in report.per_minibatch.iter().zip(&losses) {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}: loss of minibatch {mb}: {got} vs {want}"
        );
    }
    for (i, (got, want)) in piped.snapshot().iter().zip(&oracle.snapshot()).enumerate() {
        let bits = |t: &[f32]| t.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert!(
            bits(got.data()) == bits(want.data()),
            "{what}: parameter tensor {i}"
        );
    }
}

#[test]
fn every_semantics_is_its_delayed_sgd_recurrence() {
    let two = PipelineConfig::straight(8, &[3]);
    let four = PipelineConfig::straight(8, &[1, 3, 5]);
    let stashed = |kind| opts(Semantics::Stashed, kind);
    let vanilla = stashed(ScheduleKind::Vanilla1F1B);
    let rows: Vec<Row> = vec![
        ("2-stage vanilla", mlp, two.clone(), vanilla.clone()),
        (
            "2-stage 2bw",
            mlp,
            two.clone(),
            stashed(ScheduleKind::TwoBW),
        ),
        (
            "2-stage recompute",
            mlp,
            two.clone(),
            stashed(ScheduleKind::Recompute),
        ),
        (
            "2-stage 2bw-recompute",
            mlp,
            two.clone(),
            stashed(ScheduleKind::TwoBWRecompute),
        ),
        (
            "4-stage recompute",
            mlp,
            four.clone(),
            stashed(ScheduleKind::Recompute),
        ),
        (
            "4-stage 2bw-recompute",
            mlp,
            four.clone(),
            stashed(ScheduleKind::TwoBWRecompute),
        ),
        (
            "2-stage vertical sync",
            mlp,
            two.clone(),
            opts(Semantics::VerticalSync, ScheduleKind::Vanilla1F1B),
        ),
        // 32 minibatches: the last group of 3 is a partial one.
        (
            "2-stage gpipe",
            mlp,
            two,
            opts(
                Semantics::GPipe { microbatches: 3 },
                ScheduleKind::Vanilla1F1B,
            ),
        ),
        (
            "4-stage gpipe",
            mlp,
            four,
            opts(
                Semantics::GPipe { microbatches: 4 },
                ScheduleKind::Vanilla1F1B,
            ),
        ),
        (
            "3-stage dropout recompute",
            dropout_mlp,
            PipelineConfig::straight(6, &[1, 3]),
            stashed(ScheduleKind::Recompute),
        ),
        (
            "data-parallel 2bw",
            mlp,
            PipelineConfig::data_parallel(8, 4),
            stashed(ScheduleKind::TwoBW),
        ),
        ("2-1", mlp, replicated("2-1"), vanilla.clone()),
        ("2-2", mlp, replicated("2-2"), vanilla.clone()),
        ("1-2-1", mlp, replicated("1-2-1"), vanilla.clone()),
        ("2-2-1", mlp, replicated("2-2-1"), vanilla.clone()),
        ("3-1", mlp, replicated("3-1"), vanilla),
        // Under 2BW every stage runs one group behind, even where the
        // warm-up puts vanilla off the stashing formula.
        (
            "1-2 2bw",
            mlp,
            replicated("1-2"),
            stashed(ScheduleKind::TwoBW),
        ),
    ];
    for (what, model, config, opts) in &rows {
        assert_matches_recurrence(what, *model, config, opts);
    }
}

#[test]
fn naive_pipelining_strays_from_the_stashed_recurrence() {
    // Without a stash, a backward runs under weights its forward never
    // saw: the gradients are no delayed SGD's.
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let stashed = opts(Semantics::Stashed, ScheduleKind::Vanilla1F1B);
    let naive = opts(Semantics::Naive, ScheduleKind::Vanilla1F1B);
    let (_, report) = train_pipeline(mlp(), &config, &data(), &naive);
    let (_, losses) = train_delayed_sgd(mlp(), &config, &data(), &stashed);
    let (first, worst) = report
        .per_minibatch
        .iter()
        .zip(&losses)
        .map(|(&(mb, got), &(_, want))| (mb, (got - want).abs()))
        .fold((None, (0, 0.0f32)), |(first, worst), (mb, d)| {
            let first = first.or((d > 0.0).then_some(mb));
            (first, if d > worst.1 { (mb, d) } else { worst })
        });
    println!(
        "naive vs stashed recurrence: first differs at minibatch {first:?}, \
         largest |Δloss| {:.4} at minibatch {}",
        worst.1, worst.0
    );
    // A forward runs under the live weights either way; the losses part
    // once a backward under weights its forward did not see has updated
    // some stage, from the first warm-up on.
    assert!(
        first.is_some_and(|mb| mb <= 4),
        "first difference at {first:?}"
    );
    assert!(worst.1 > 1e-3, "largest deviation {}", worst.1);
}

#[test]
fn two_bw_differs_from_vanilla_but_still_learns() {
    // 2BW is a *different* recurrence (fewer, group-averaged updates), so
    // its trajectory must not match vanilla's, and it must still fit the
    // easy dataset.
    let config = PipelineConfig::straight(8, &[1, 3, 5]);
    let plain = |kind| TrainOpts {
        epochs: 8,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        ..opts(Semantics::Stashed, kind)
    };
    let (_, van) = train_pipeline(mlp(), &config, &data(), &plain(ScheduleKind::Vanilla1F1B));
    let (mut m, two) = train_pipeline(mlp(), &config, &data(), &plain(ScheduleKind::TwoBW));
    let diverged = van
        .per_minibatch
        .iter()
        .zip(&two.per_minibatch)
        .any(|(a, b)| a.1 != b.1);
    assert!(diverged, "2BW must not silently degenerate to vanilla");
    let acc = evaluate(&mut m, &data(), 16);
    assert!(acc > 0.9, "2BW accuracy {acc}");
}
