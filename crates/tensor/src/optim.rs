//! Optimizers.
//!
//! Optimizers keep their per-parameter state (momentum buffers, Adam
//! moments) indexed by parameter position, so a single optimizer instance is
//! bound to one stage's parameter list for its lifetime — exactly how the
//! PipeDream runtime uses them (one optimizer per stage replica).
//!
//! **An update is one pass.** [`Optimizer::update_from`] reads each
//! parameter's gradient where it lies ([`Grad`]): in the parameter itself,
//! or in a gradient-sync round's deposits, averaged as it is read. It
//! writes the next value once, in place or into a buffer of the caller's
//! ([`Update`]), so a stage that must keep the old version writes the new
//! one beside it instead of copying the old one first. Every optimizer
//! runs its rule in one loop, `Chunk::step`, over the blocks `for_each`
//! hands it. The gradient it reads is the one the layers' weight halves
//! stored ([`Layer::backward_weight`]).

use crate::layers::{Layer, Param};
use crate::tensor::Tensor;
use std::sync::Arc;

/// One replica's gradients in a gradient-sync round: one tensor per
/// parameter, in parameter order, each the sum of `count` backward passes.
#[derive(Debug, Default)]
pub struct GradSet {
    /// The summed gradients.
    pub grads: Vec<Tensor>,
    /// Backward passes summed into them.
    pub count: u32,
}

/// Where an update reads parameter `i`'s gradient.
#[derive(Clone, Copy)]
pub enum Grad<'a> {
    /// The parameter's own gradient, the sum of `count` backward passes,
    /// read as their mean and zeroed where it is read.
    Own {
        /// Backward passes summed into the gradient.
        count: u32,
    },
    /// A gradient-sync round's deposits, in replica order: each deposit's
    /// mean over its passes, the means summed in replica order and the sum
    /// scaled by 1/replicas — the operations, in the order, of an all-reduce
    /// that averages into one buffer. The parameter's own gradient, which
    /// the round does not hold, is left as it is ([`Layer::reset_grads`]
    /// readies it for the next passes).
    Round(&'a [Arc<GradSet>]),
}

/// Elements an update handles at a time: a gradient block it assembles is
/// 2 KB, so it stays in L1 between being assembled and being read.
const BLOCK: usize = 512;

/// Parameter `i`'s update loop, the one every optimizer's rule runs in,
/// a block of elements at a time: `rule(e0, w, g)` steps the weights `w`
/// of elements `e0..` by their gradient `g`. The gradient is read from
/// `grad` — the parameter's own zeroed as the loop goes; the next weights
/// are written over the current ones, or — with `next` — into `next`, and
/// the current ones stay where they are ([`Chunk`]).
fn for_each(
    i: usize,
    p: &mut Param,
    grad: Grad<'_>,
    next: Option<&mut Tensor>,
    mut rule: impl FnMut(usize, Chunk<'_>, Grads<'_>),
) {
    let Param {
        value, grad: own, ..
    } = p;
    if let Grad::Own { .. } = grad {
        assert_eq!(value.shape(), own.shape(), "gradient shape mismatch");
    }
    let (cur, next) = match next {
        Some(next) => {
            assert_eq!(next.shape(), value.shape(), "next version shape mismatch");
            (Some(value.data()), next.data_mut())
        }
        None => (None, value.data_mut()),
    };
    let own = own.data_mut();
    let n = next.len();
    let mut tmp = [0.0f32; BLOCK];
    for e0 in (0..n).step_by(BLOCK) {
        let range = e0..n.min(e0 + BLOCK);
        let g = match grad {
            Grad::Own { count } if count <= 1 => Grads(&own[range.clone()], 1.0),
            Grad::Own { count } => Grads(&own[range.clone()], 1.0 / count as f32),
            Grad::Round(sets) => {
                let tmp = &mut tmp[..range.len()];
                round_mean(sets, i, e0, tmp);
                Grads(tmp, 1.0)
            }
        };
        let next = &mut next[range.clone()];
        let w = match cur {
            Some(cur) => Chunk::Into {
                cur: &cur[range.clone()],
                next,
            },
            None => Chunk::InPlace(next),
        };
        rule(e0, w, g);
        if let Grad::Own { .. } = grad {
            own[range].fill(0.0);
        }
    }
}

/// A block of gradients as an update reads them: each times a scale (1
/// reads it as it is).
struct Grads<'a>(&'a [f32], f32);

/// A block of weights an update steps: in place, or from the current ones
/// into a buffer of their own.
enum Chunk<'a> {
    /// Current weights, overwritten with the next ones.
    InPlace(&'a mut [f32]),
    /// Current weights, left as they are, and where the next ones go.
    Into {
        /// The current weights.
        cur: &'a [f32],
        /// The next weights.
        next: &'a mut [f32],
    },
}

impl Chunk<'_> {
    /// Write `f(w, g, s)` for each weight `w`, with its gradient from `g`
    /// and its optimizer state from `state` (empty for none): one loop over
    /// the block, whatever the gradient's source.
    #[inline(always)]
    fn step(
        self,
        g: Grads<'_>,
        state: &mut [f32],
        f: impl FnMut(f32, f32, Option<&mut f32>) -> f32,
    ) {
        match g {
            Grads(g, 1.0) => self.step_with(g.iter().copied(), state, f),
            Grads(g, scale) => self.step_with(g.iter().map(|&g| g * scale), state, f),
        }
    }

    #[inline(always)]
    fn step_with(
        self,
        g: impl Iterator<Item = f32>,
        state: &mut [f32],
        mut f: impl FnMut(f32, f32, Option<&mut f32>) -> f32,
    ) {
        match (self, state.is_empty()) {
            (Chunk::InPlace(w), true) => {
                w.iter_mut().zip(g).for_each(|(w, g)| *w = f(*w, g, None));
            }
            (Chunk::InPlace(w), false) => {
                let s = &mut state[..w.len()];
                for ((w, g), s) in w.iter_mut().zip(g).zip(s) {
                    *w = f(*w, g, Some(s));
                }
            }
            (Chunk::Into { cur, next }, true) => {
                for ((n, &w), g) in next.iter_mut().zip(cur).zip(g) {
                    *n = f(w, g, None);
                }
            }
            (Chunk::Into { cur, next }, false) => {
                let s = &mut state[..next.len()];
                for (((n, &w), g), s) in next.iter_mut().zip(cur).zip(g).zip(s) {
                    *n = f(w, g, Some(s));
                }
            }
        }
    }
}

/// Elements `e0..e0 + out.len()` of parameter `i`'s mean over the round
/// `sets` (see [`Grad::Round`]), into `out`: the first pass reads two
/// deposits, each later one a pass of its own, and the last pass also
/// scales the sum. A deposit of one backward pass is scaled by 1 and a
/// sum not yet the last by 1, both exact, so every round runs the same
/// loops.
pub fn round_mean(sets: &[Arc<GradSet>], i: usize, e0: usize, out: &mut [f32]) {
    let len = out.len();
    let deposit = |r: usize| -> (&[f32], f32) {
        let set = &sets[r];
        (
            &set.grads[i].data()[e0..e0 + len],
            1.0 / set.count.max(1) as f32,
        )
    };
    let last = sets.len() - 1;
    // The scale of the sum after deposit `r`: 1 / replicas after the last.
    let sum_scale = |r: usize| {
        if r == last {
            1.0 / sets.len() as f32
        } else {
            1.0
        }
    };
    let (a, sa) = deposit(0);
    if last == 0 {
        out.iter_mut().zip(a).for_each(|(o, &a)| *o = a * sa);
        return;
    }
    let ((b, sb), k) = (deposit(1), sum_scale(1));
    for ((o, &a), &b) in out.iter_mut().zip(a).zip(b) {
        *o = (a * sa + b * sb) * k;
    }
    for r in 2..sets.len() {
        let ((d, sd), k) = (deposit(r), sum_scale(r));
        out.iter_mut()
            .zip(d)
            .for_each(|(o, &d)| *o = (*o + d * sd) * k);
    }
}

/// A gradient-descent optimizer applied to a stage's parameter list.
pub trait Optimizer: Send {
    /// Start an update of a list of `count` parameters.
    fn begin_step(&mut self, count: usize);

    /// Update parameter `i` of the list from `grad`, zeroing the
    /// parameter's own gradient. The next value is written into `next`
    /// when there is one — `p.value` keeps the current one — and over
    /// `p.value` otherwise.
    fn update_from(&mut self, i: usize, p: &mut Param, grad: Grad<'_>, next: Option<&mut Tensor>);

    /// Update parameter `i` of the list from its accumulated gradient, in
    /// place, then zero the gradient.
    fn update(&mut self, i: usize, p: &mut Param) {
        self.update_from(i, p, Grad::Own { count: 1 }, None);
    }

    /// Apply one update using the accumulated gradients, then zero them.
    fn step(&mut self, params: &mut [&mut Param]) {
        self.begin_step(params.len());
        for (i, p) in params.iter_mut().enumerate() {
            self.update(i, p);
        }
    }

    /// [`Optimizer::step`] over `layer`'s parameters where they lie:
    /// the per-minibatch form, which collects no list of them.
    fn step_layer(&mut self, layer: &mut dyn Layer) {
        let mut count = 0;
        layer.visit_params(&mut |_| count += 1);
        self.begin_step(count);
        let mut i = 0;
        layer.visit_params_mut(&mut |p| {
            self.update(i, p);
            i += 1;
        });
    }

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replace the learning rate (for LR schedules / warm-up, §5.1).
    fn set_learning_rate(&mut self, lr: f32);
}

/// One optimizer update over a model's parameters, in the order its
/// layers visit them: [`Update::param`] updates the next one from its
/// gradient. With `next`, the next values are written there, one tensor
/// per parameter, and the parameters keep the current ones.
pub struct Update<'a> {
    opt: &'a mut dyn Optimizer,
    grad: Grad<'a>,
    next: Option<&'a mut [Tensor]>,
    i: usize,
    /// Weight and gradient floats read and written so far.
    floats: u64,
}

impl<'a> Update<'a> {
    /// Start an update of `count` parameters with `opt`.
    pub fn new(
        opt: &'a mut dyn Optimizer,
        count: usize,
        grad: Grad<'a>,
        next: Option<&'a mut [Tensor]>,
    ) -> Self {
        opt.begin_step(count);
        Update {
            opt,
            grad,
            next,
            i: 0,
            floats: 0,
        }
    }

    /// Update the next parameter from its gradient.
    pub fn param(&mut self, p: &mut Param) {
        let next = self.next.as_deref_mut().map(|n| &mut n[self.i]);
        self.opt.update_from(self.i, p, self.grad, next);
        self.i += 1;
        // The weights read and written; the parameter's own gradient read
        // and zeroed, or one deposit per replica read from a round.
        let grads = match self.grad {
            Grad::Own { .. } => 2,
            Grad::Round(sets) => sets.len() as u64,
        };
        self.floats += (2 + grads) * p.value.len() as u64;
    }

    /// Weight and gradient bytes this update has read and written: the
    /// weights once each way, and its own gradient as read and as zeroed,
    /// or a round's deposits as read.
    pub fn bytes(&self) -> u64 {
        4 * self.floats
    }
}

/// Stochastic gradient descent with optional momentum and weight decay.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Sgd::with_momentum(lr, 0.0, 0.0)
    }

    /// SGD with momentum `mu` and L2 weight decay `wd`.
    pub fn with_momentum(lr: f32, mu: f32, wd: f32) -> Self {
        Sgd {
            lr,
            momentum: mu,
            weight_decay: wd,
            velocity: Vec::new(),
        }
    }

    /// Parameter `i`'s velocity, `len` floats (built on the first step),
    /// or nothing without momentum.
    fn velocity(&mut self, i: usize, len: usize) -> &mut [f32] {
        if self.momentum == 0.0 {
            return &mut [];
        }
        if i == self.velocity.len() {
            self.velocity.push(Tensor::zeros(&[len]));
        }
        let v = self.velocity[i].data_mut();
        assert_eq!(
            v.len(),
            len,
            "optimizer bound to a different parameter list"
        );
        v
    }
}

impl Optimizer for Sgd {
    fn begin_step(&mut self, count: usize) {
        // The velocity is the only state, and only momentum reads it: plain
        // SGD allocates nothing, first step included. The first step
        // builds it, one parameter at a time.
        if self.momentum != 0.0 && !self.velocity.is_empty() {
            assert_eq!(
                self.velocity.len(),
                count,
                "optimizer bound to a different parameter list"
            );
        }
    }

    fn update_from(&mut self, i: usize, p: &mut Param, grad: Grad<'_>, next: Option<&mut Tensor>) {
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        let v = self.velocity(i, p.value.len());
        for_each(i, p, grad, next, |e0, w, g| {
            let v = if v.is_empty() {
                &mut [][..]
            } else {
                &mut v[e0..]
            };
            // Weight decay folds into the gradient, momentum is
            // `v ← μv + g`, and `θ ← θ − lr·v` (`v = g` without momentum),
            // each rounded as the tensor ops they replace.
            w.step(g, v, |w, g, v| {
                let gi = if wd != 0.0 { g + wd * w } else { g };
                match v {
                    Some(v) => {
                        *v = *v * mu + gi;
                        w + -lr * *v
                    }
                    None => w + -lr * gi,
                }
            });
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) — used by the paper for GNMT training.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn begin_step(&mut self, count: usize) {
        // The first step builds the moments, one parameter at a time.
        if !self.m.is_empty() {
            assert_eq!(self.m.len(), count);
        }
        self.t += 1;
    }

    fn update_from(&mut self, i: usize, p: &mut Param, grad: Grad<'_>, next: Option<&mut Tensor>) {
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        if i == self.m.len() {
            self.m.push(Tensor::zeros(p.value.shape()));
            self.v.push(Tensor::zeros(p.value.shape()));
        }
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let (md, vd) = (self.m[i].data_mut(), self.v[i].data_mut());
        for_each(i, p, grad, next, |e0, w, g| {
            // The moments go in as the first moment's state; the second
            // moment is indexed alongside.
            let mut e = e0;
            w.step(g, &mut md[e0..], |w, g, m| {
                let m = m.expect("Adam keeps a first moment per weight");
                let v = &mut vd[e];
                e += 1;
                let mi = beta1 * *m + (1.0 - beta1) * g;
                let vi = beta2 * *v + (1.0 - beta2) * g * g;
                *m = mi;
                *v = vi;
                let mhat = mi / b1t;
                let vhat = vi / b2t;
                w - lr * mhat / (vhat.sqrt() + eps)
            });
        });
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(v: &[f32], g: &[f32]) -> Param {
        let mut p = Param::new("p", Tensor::from_slice(v));
        p.grad = Tensor::from_slice(g);
        p
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut p = param(&[1.0], &[2.0]);
        let mut opt = Sgd::new(0.1);
        opt.step(&mut [&mut p]);
        assert!((p.value.data()[0] - 0.8).abs() < 1e-6);
        assert_eq!(p.grad.data()[0], 0.0, "step must zero the gradient");
    }

    #[test]
    fn momentum_accumulates() {
        let mut p = param(&[0.0], &[1.0]);
        let mut opt = Sgd::with_momentum(0.1, 0.9, 0.0);
        opt.step(&mut [&mut p]);
        // Second step with the same gradient: v = 0.9·1 + 1 = 1.9.
        p.grad = Tensor::from_slice(&[1.0]);
        opt.step(&mut [&mut p]);
        assert!((p.value.data()[0] - (-0.1 - 0.19)).abs() < 1e-6);
    }

    #[test]
    fn sgd_without_momentum_keeps_no_velocity() {
        let mut p = param(&[1.0, -2.0], &[0.5, 0.25]);
        let mut opt = Sgd::new(0.1);
        for _ in 0..3 {
            p.grad = Tensor::from_slice(&[0.5, 0.25]);
            opt.step(&mut [&mut p]);
        }
        assert!(opt.velocity.is_empty(), "momentum 0 allocates no state");
        // The update is the same `value.axpy(-lr, grad)`, bit for bit.
        let mut want = Tensor::from_slice(&[1.0, -2.0]);
        for _ in 0..3 {
            want.axpy(-0.1, &Tensor::from_slice(&[0.5, 0.25]));
        }
        assert_eq!(p.value, want);
        // With momentum the buffer exists from the first step.
        let mut opt = Sgd::with_momentum(0.1, 0.9, 0.0);
        opt.step(&mut [&mut p]);
        assert_eq!(opt.velocity.len(), 1);
    }

    #[test]
    fn one_pass_step_rounds_as_the_tensor_ops() {
        // The step as three tensor passes and a zeroing pass; the one-pass
        // loop must match it bit for bit and leave the gradient zero.
        let grads = [[0.5f32, -0.25, 3.0e-3], [-1.5, 0.125, 7.0]];
        for (mu, wd) in [(0.0, 0.0), (0.0, 0.01), (0.9, 0.0), (0.9, 0.01)] {
            let mut p = param(&[1.0, -2.0, 0.3], &[0.0; 3]);
            let (mut want, mut vel) = (p.value.clone(), Tensor::zeros(&[3]));
            let mut opt = Sgd::with_momentum(0.1, mu, wd);
            for g in grads.iter().cycle().take(5) {
                p.grad = Tensor::from_slice(g);
                opt.step(&mut [&mut p]);
                let mut g = Tensor::from_slice(g);
                if wd != 0.0 {
                    g.axpy(wd, &want);
                }
                if mu != 0.0 {
                    vel.scale_inplace(mu);
                    vel.axpy(1.0, &g);
                    want.axpy(-0.1, &vel);
                } else {
                    want.axpy(-0.1, &g);
                }
                assert_eq!(p.value, want, "mu {mu} wd {wd}");
                assert!(p.grad.data().iter().all(|&g| g == 0.0));
            }
        }
        let mut p = param(&[0.0, 1.0], &[0.3, -0.2]);
        Adam::new(0.01).step(&mut [&mut p]);
        assert!(p.grad.data().iter().all(|&g| g == 0.0), "Adam zeroes too");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut p = param(&[1.0], &[0.0]);
        let mut opt = Sgd::with_momentum(0.1, 0.0, 0.5);
        opt.step(&mut [&mut p]);
        assert!((p.value.data()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        let mut p = param(&[0.0], &[0.3]);
        let mut opt = Adam::new(0.01);
        opt.step(&mut [&mut p]);
        // Bias correction makes the first step ≈ lr·sign(g).
        assert!((p.value.data()[0] + 0.01).abs() < 1e-4);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize (x-3)² starting at 0.
        let mut p = param(&[0.0], &[0.0]);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let x = p.value.data()[0];
            p.grad = Tensor::from_slice(&[2.0 * (x - 3.0)]);
            opt.step(&mut [&mut p]);
        }
        assert!((p.value.data()[0] - 3.0).abs() < 0.05);
    }

    #[test]
    fn lr_is_adjustable() {
        let mut opt = Sgd::new(0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    fn optimizers() -> Vec<Box<dyn Optimizer>> {
        vec![
            Box::new(Sgd::new(0.1)),
            Box::new(Sgd::with_momentum(0.1, 0.9, 0.0)),
            Box::new(Sgd::with_momentum(0.1, 0.9, 0.01)),
            Box::new(Sgd::with_momentum(0.1, 0.0, 0.01)),
            Box::new(Adam::new(0.01)),
        ]
    }

    /// A gradient of `n` elements, more than one block of the update loop.
    fn grads(n: usize, seed: u64) -> Tensor {
        crate::init::normal(&[n], 1.0, &mut crate::init::rng(seed))
    }

    #[test]
    fn an_update_written_into_next_leaves_the_current_weights() {
        let n = 3 * BLOCK + 7;
        for k in 0..optimizers().len() {
            let (mut a, mut b) = (optimizers().remove(k), optimizers().remove(k));
            let w0 = grads(n, 1);
            let (mut pa, mut pb) = (Param::new("a", w0.clone()), Param::new("b", w0.clone()));
            let mut next = Tensor::full(&[n], f32::NAN);
            for step in 0..3 {
                pa.grad = grads(n, 10 + step);
                pb.grad = grads(n, 10 + step);
                a.begin_step(1);
                a.update(0, &mut pa);
                b.begin_step(1);
                let before = pb.value.clone();
                b.update_from(0, &mut pb, Grad::Own { count: 1 }, Some(&mut next));
                assert_eq!(pb.value, before, "optimizer {k}: the current weights stay");
                assert_eq!(next, pa.value, "optimizer {k}, step {step}");
                assert!(pb.grad.data().iter().all(|&g| g == 0.0));
                std::mem::swap(&mut pb.value, &mut next);
            }
        }
    }

    #[test]
    fn a_round_is_averaged_as_read_bit_for_bit() {
        // Each replica's sum scaled by 1 / its count, the sums added in
        // replica order and scaled by 1 / replicas, then the step: as the
        // tensor ops of an all-reduce followed by a step, bit for bit.
        let n = 2 * BLOCK + 3;
        for counts in [vec![1, 1], vec![2, 1], vec![1, 1, 1], vec![3, 2, 1]] {
            for k in 0..optimizers().len() {
                let (mut a, mut b) = (optimizers().remove(k), optimizers().remove(k));
                let mut pa = Param::new("a", grads(n, 2));
                let mut pb = pa.clone();
                for step in 0..2u64 {
                    let sets: Vec<Arc<GradSet>> = counts
                        .iter()
                        .enumerate()
                        .map(|(r, &count)| {
                            Arc::new(GradSet {
                                grads: vec![grads(n, 100 * step + r as u64)],
                                count,
                            })
                        })
                        .collect();
                    let mut mean = sets[0].grads[0].clone();
                    mean.scale_inplace(if counts[0] > 1 {
                        1.0 / counts[0] as f32
                    } else {
                        1.0
                    });
                    for (set, &count) in sets.iter().zip(&counts).skip(1) {
                        let mut d = set.grads[0].clone();
                        if count > 1 {
                            d.scale_inplace(1.0 / count as f32);
                        }
                        mean.axpy(1.0, &d);
                    }
                    mean.scale_inplace(1.0 / counts.len() as f32);
                    pa.grad = mean;
                    a.begin_step(1);
                    a.update(0, &mut pa);
                    pb.grad = Tensor::full(&[n], 5.0);
                    b.begin_step(1);
                    b.update_from(0, &mut pb, Grad::Round(&sets), None);
                    assert_eq!(pa.value, pb.value, "counts {counts:?}, optimizer {k}");
                    assert!(
                        pb.grad.data().iter().all(|&g| g == 5.0),
                        "a round leaves the parameter's own gradient to reset_grads"
                    );
                }
            }
        }
    }

    #[test]
    fn a_scaled_own_gradient_is_its_mean() {
        let n = BLOCK + 1;
        for k in 0..optimizers().len() {
            let (mut a, mut b) = (optimizers().remove(k), optimizers().remove(k));
            let mut pa = Param::new("a", grads(n, 3));
            let mut pb = pa.clone();
            pa.grad = grads(n, 4);
            pa.grad.scale_inplace(1.0 / 3.0);
            pb.grad = grads(n, 4);
            a.begin_step(1);
            a.update(0, &mut pa);
            b.begin_step(1);
            b.update_from(0, &mut pb, Grad::Own { count: 3 }, None);
            assert_eq!(pa.value, pb.value, "optimizer {k}");
        }
    }
}
