//! `StageObsRecord::weight_bytes`, the weight and gradient bytes a
//! worker's updates read and write, pinned per kind of update: a step
//! reads and writes each weight and reads each gradient and zeroes it,
//! after each backward's weight half stored it (a read and a write); a
//! gradient-sync round's step reads one deposit per replica, and the next
//! backward writes `Linear`'s gradients into buffers nobody zeroed.

use pipedream_core::stash::ScheduleKind;
use pipedream_core::PipelineConfig;
use pipedream_runtime::{train_pipeline, OptimKind, Semantics, StageObsRecord, TrainOpts};
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu, Scale};
use pipedream_tensor::{Layer, Sequential};

/// Four layers: `Linear`, `Relu`, `Scale`, `Linear`. `Scale`'s gradients
/// are zeroed by a sync round, `Linear`'s left for the next backward to
/// write.
fn mlp() -> Sequential {
    let mut r = rng(5);
    Sequential::new("mlp4")
        .push(Linear::new(8, 16, &mut r))
        .push(Relu::new())
        .push(Scale::new(16))
        .push(Linear::new(16, 4, &mut r))
}

/// Floats of `layers`' parameters, `Linear`'s and the others'.
fn floats(layers: &[Box<dyn Layer>]) -> (u64, u64) {
    let (mut linear, mut other) = (0, 0);
    for l in layers {
        let n = l.param_count() as u64;
        if l.name().starts_with("linear") {
            linear += n;
        } else {
            other += n;
        }
    }
    (linear, other)
}

fn run(config: &PipelineConfig, optim: OptimKind, schedule: ScheduleKind) -> Vec<StageObsRecord> {
    let data = blobs(256, 8, 4, 0.6, 3);
    let opts = TrainOpts {
        epochs: 1,
        batch: 16,
        optim,
        semantics: Semantics::Stashed,
        schedule,
        ..TrainOpts::default()
    };
    let (_, report) = train_pipeline(mlp(), config, &data, &opts);
    assert_eq!(report.per_minibatch.len(), 16);
    report.stage_obs
}

const SGD: OptimKind = OptimKind::Sgd {
    lr: 0.05,
    momentum: 0.9,
};

#[test]
fn a_step_reads_each_stored_gradient_whatever_the_optimizer() {
    let p = mlp().param_count() as u64;
    for optim in [SGD, OptimKind::Adam { lr: 0.01 }] {
        let obs = run(
            &PipelineConfig::straight(4, &[]),
            optim,
            ScheduleKind::Vanilla1F1B,
        );
        let o = &obs[0];
        assert_eq!(o.backwards, 16);
        // The step reads and writes each weight, reads each gradient and
        // zeroes it, after the backward's weight half read and wrote it.
        let per_update = 4 * 6 * p;
        assert_eq!(o.weight_bytes, 16 * per_update, "{optim:?}");
        assert_eq!(o.weight_bytes_per_mb(), per_update as f64);
    }
}

#[test]
fn each_stage_of_a_pipeline_steps_its_own_weights() {
    // Stage 0 keeps its old weights for the minibatch in flight: the next
    // ones are written beside them, at the same cost as in place.
    let stages = mlp().split_off(&[2]);
    let obs = run(
        &PipelineConfig::straight(4, &[1]),
        SGD,
        ScheduleKind::Vanilla1F1B,
    );
    for (o, stage) in obs.iter().zip(&stages) {
        assert_eq!(
            o.weight_bytes,
            o.backwards * 4 * 6 * stage.param_count() as u64
        );
    }
}

#[test]
fn a_two_bw_group_stores_each_backward_and_steps_once() {
    // Two stages under 2BW: groups of two minibatches, one update each
    // from a gradient two backwards accumulated.
    let stages = mlp().split_off(&[2]);
    let obs = run(&PipelineConfig::straight(4, &[1]), SGD, ScheduleKind::TwoBW);
    for (o, stage) in obs.iter().zip(&stages) {
        let (linear, other) = floats(stage.layers());
        let p = linear + other;
        assert_eq!(o.backwards, 16);
        assert_eq!(o.weight_bytes, 8 * 4 * (4 * p + 2 * 2 * p));
    }
}

#[test]
fn a_sync_round_reads_one_deposit_per_replica() {
    let (linear, other) = floats(mlp().layers());
    let p = linear + other;
    let obs = run(
        &PipelineConfig::data_parallel(4, 2),
        SGD,
        ScheduleKind::Vanilla1F1B,
    );
    for o in &obs {
        assert_eq!(o.backwards, 8);
        // The step reads both deposits and reads and writes the weights.
        // The backward writes `Linear`'s gradients into the buffers the
        // last round left empty, and reads and writes `Scale`'s, which
        // that round zeroed.
        let step = 4 * p;
        let stores = linear + 2 * other;
        let zeroed = other;
        assert_eq!(o.weight_bytes, 8 * 4 * (step + stores + zeroed));
    }
}
