//! The reference trainers, both single-threaded: minibatch SGD, and the
//! §3.3 delayed-SGD recurrence every pipelined run is held to.
//!
//! The paper's other baselines are configurations of the pipeline trainer,
//! not trainers of their own: BSP data parallelism is one stage on `n`
//! replicas under 1F1B-RR (`PipelineConfig::data_parallel`), GPipe is
//! [`crate::Semantics::GPipe`]. [`train_delayed_sgd`] states what each of
//! them, and every other [`crate::Semantics`] but naive pipelining,
//! computes.

use crate::data::TrainData;
use crate::report::{EpochStats, TrainReport};
use crate::trainer::{Semantics, TrainOpts};
use pipedream_core::stash::staleness;
use pipedream_core::PipelineConfig;
use pipedream_tensor::data::Dataset;
use pipedream_tensor::{softmax_cross_entropy, Layer, Optimizer, Sequential, Tensor};
use std::ops::Range;
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
            // Gradients start at zero and every step leaves them so. Nobody
            // reads the model's input gradient.
            model.backward_input(loss.grad, i as u64, false);
            model.backward_weight(i as u64);
            optimizer.step_layer(&mut model);
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

/// The §3.3 recurrence `w(t+1) = w(t) − ν·∇f(w₁(t−τ₁), …, wₙ(t−τₙ))` on
/// one thread: what [`crate::train_pipeline`] computes under `config`,
/// bit for bit, for every semantics but [`Semantics::Naive`], which follows
/// no such recurrence.
///
/// The model runs whole, one minibatch at a time. Stage `s` of `config`
/// applies one update per `u` minibatches, and minibatch `t` runs both
/// passes of the stage's layers under the stage's weights after
/// `⌊t/u⌋ − τ` updates (at least 0), the delay `τ` taken from
/// [`staleness`]:
///
/// | semantics | `u` | `τ` |
/// |---|---|---|
/// | stashed | the stage's replicas | [`staleness::replicated_stashing_delay`] |
/// | stashed under 2BW | the 2BW group | [`staleness::two_bw_delay`] |
/// | vertical sync | 1 | [`staleness::vertical_sync_delay`] |
/// | GPipe | the flush group | [`staleness::bsp_delay`] |
///
/// Minibatch `t` belongs to replica `t mod replicas`, which adds its
/// gradients up in the order it runs their backwards (a GPipe group's last
/// minibatch first). An update scales them as a worker does: each
/// replica's sum by 1 / its count, then the replicas' sum, in replica
/// order, by 1 / replicas. The stage's optimizer then steps its live
/// weights. Returns the model with every stage's live weights, and every
/// minibatch's loss in minibatch order.
///
/// A reference for small models: it keeps every version it makes. It
/// covers a fresh run at the default in-flight depth, and vertical sync on
/// straight pipelines only.
pub fn train_delayed_sgd(
    mut model: Sequential,
    config: &PipelineConfig,
    dataset: &Dataset,
    opts: &TrainOpts,
) -> (Sequential, Vec<(u64, f32)>) {
    assert!(opts.depth.is_none(), "the default depth's recurrence only");
    let data = TrainData::with_start(dataset, opts.batch, 0);
    let total = (opts.epochs * data.minibatches_per_epoch()) as u64;
    let total = total - total % config.replica_lcm();
    let flush = match opts.semantics {
        Semantics::GPipe { microbatches } => microbatches,
        _ => 1,
    };
    let n = config.num_stages();
    let initial = model.snapshot();
    let mut first = 0;
    let mut stages: Vec<Stage> = config
        .stages()
        .iter()
        .enumerate()
        .map(|(s, plan)| {
            let replicas = plan.replicas;
            let (every, delay) = match opts.semantics {
                Semantics::Stashed if opts.schedule.uses_two_bw() => (
                    config.two_bw_group(config.noam()),
                    staleness::two_bw_delay(s, n),
                ),
                Semantics::Stashed => {
                    let from = config.stages()[s..].iter().map(|p| p.replicas).sum();
                    let delay = staleness::replicated_stashing_delay(from, replicas);
                    (replicas as u64, delay)
                }
                Semantics::VerticalSync => {
                    assert_eq!(config.total_workers(), n, "vertical sync: straight only");
                    (1, staleness::vertical_sync_delay(s, n))
                }
                Semantics::GPipe { .. } => (flush, staleness::bsp_delay(s, n)),
                Semantics::Naive => panic!("naive pipelining follows no delayed-SGD recurrence"),
            };
            let layers = &model.layers()[plan.first_layer..=plan.last_layer];
            let params = first..first + layers.iter().map(|l| l.params().len()).sum::<usize>();
            first = params.end;
            let weights = initial[params.clone()].to_vec();
            let zeros: Vec<Tensor> = weights.iter().map(|w| Tensor::zeros(w.shape())).collect();
            Stage {
                params,
                every,
                delay: delay as u64,
                versions: vec![weights],
                grads: vec![zeros; replicas],
                counts: vec![0; replicas],
                optimizer: opts.optim.build(),
                lr_mb: 0,
            }
        })
        .collect();
    let mut losses = Vec::with_capacity(total as usize);
    for start in (0..total).step_by(flush as usize) {
        let end = (start + flush).min(total);
        for t in (start..end).rev() {
            stages.iter_mut().for_each(|st| st.enter(&mut model, t));
            let out = model.forward(&data.input(t), t);
            let loss = softmax_cross_entropy(&out, data.labels(t));
            model.backward_input(loss.grad, t, false);
            model.backward_weight(t);
            stages.iter_mut().for_each(|st| st.leave(&mut model, t));
            losses.push((t, loss.loss));
        }
        for st in stages
            .iter_mut()
            .filter(|st| flush > 1 || end % st.every == 0)
        {
            let lr = opts
                .lr_schedule
                .lr_at(opts.optim.base_lr(), data.epoch_of(st.lr_mb));
            st.update(&mut model, lr);
        }
    }
    let mut params = model.params_mut();
    for st in &stages {
        let live = st.versions.last().expect("version 0 exists");
        for (p, w) in params[st.params.clone()].iter_mut().zip(live) {
            p.value.copy_from(w);
        }
    }
    drop(params);
    losses.sort_unstable_by_key(|&(t, _)| t);
    (model, losses)
}

/// One stage of [`train_delayed_sgd`]'s recurrence.
struct Stage {
    /// The whole model's parameters this stage holds.
    params: Range<usize>,
    /// Minibatches per update.
    every: u64,
    /// The delay, in updates.
    delay: u64,
    /// The stage's weights after each update so far.
    versions: Vec<Vec<Tensor>>,
    /// Each replica's accumulated gradients, and how many backwards they
    /// hold.
    grads: Vec<Vec<Tensor>>,
    counts: Vec<u32>,
    optimizer: Box<dyn Optimizer>,
    /// The minibatch whose epoch sets the next update's learning rate:
    /// replica 0's last.
    lr_mb: u64,
}

impl Stage {
    /// Give minibatch `t`'s passes the version its delay names, and the
    /// gradients of the replica that runs it to add to.
    fn enter(&mut self, model: &mut Sequential, t: u64) {
        let version = &self.versions[(t / self.every).saturating_sub(self.delay) as usize];
        let grads = &mut self.grads[(t % self.counts.len() as u64) as usize];
        for ((p, w), g) in model.params_mut()[self.params.clone()]
            .iter_mut()
            .zip(version)
            .zip(grads)
        {
            p.value.copy_from(w);
            std::mem::swap(&mut p.grad, g);
        }
    }

    /// Take back the gradients [`Stage::enter`] lent `t`'s passes.
    fn leave(&mut self, model: &mut Sequential, t: u64) {
        let replica = (t % self.counts.len() as u64) as usize;
        for (p, g) in model.params_mut()[self.params.clone()]
            .iter_mut()
            .zip(&mut self.grads[replica])
        {
            std::mem::swap(&mut p.grad, g);
        }
        self.counts[replica] += 1;
        if replica == 0 {
            self.lr_mb = t;
        }
    }

    /// Average the gradients as the workers and their all-reduce do, and
    /// step the live weights at learning rate `lr`.
    fn update(&mut self, model: &mut Sequential, lr: f32) {
        for (g, count) in self.grads.iter_mut().zip(&mut self.counts) {
            if *count > 1 {
                g.iter_mut()
                    .for_each(|g| g.scale_inplace(1.0 / *count as f32));
            }
            *count = 0;
        }
        let replicas = self.grads.len();
        let (sum, rest) = self.grads.split_first_mut().expect("a stage has a replica");
        for other in rest {
            for (a, b) in sum.iter_mut().zip(other) {
                a.axpy(1.0, b);
                b.fill(0.0);
            }
        }
        if replicas > 1 {
            sum.iter_mut()
                .for_each(|g| g.scale_inplace(1.0 / replicas as f32));
        }
        let mut params = model.params_mut();
        let own = &mut params[self.params.clone()];
        let live = self.versions.last().expect("version 0 exists");
        for ((p, w), g) in own.iter_mut().zip(live).zip(sum.iter_mut()) {
            p.value.copy_from(w);
            std::mem::swap(&mut p.grad, g);
        }
        self.optimizer.set_learning_rate(lr);
        // The step zeroes the gradients, ready for the next round.
        self.optimizer.step(own);
        for (p, g) in own.iter_mut().zip(sum) {
            std::mem::swap(&mut p.grad, g);
        }
        self.versions
            .push(own.iter().map(|p| p.value.clone()).collect());
    }
}
