//! Optimizers.
//!
//! Optimizers keep their per-parameter state (momentum buffers, Adam
//! moments) indexed by parameter position, so a single optimizer instance is
//! bound to one stage's parameter list for its lifetime — exactly how the
//! PipeDream runtime uses them (one optimizer per stage replica).

use crate::layers::Param;
use crate::tensor::Tensor;

/// A gradient-descent optimizer applied to a stage's parameter list.
pub trait Optimizer: Send {
    /// Apply one update using the accumulated gradients, then zero them.
    fn step(&mut self, params: &mut [&mut Param]);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replace the learning rate (for LR schedules / warm-up, §5.1).
    fn set_learning_rate(&mut self, lr: f32);
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
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        // The velocity is the only state, and only momentum reads it: plain
        // SGD allocates nothing, first step included.
        if self.momentum != 0.0 {
            if self.velocity.is_empty() {
                self.velocity = params
                    .iter()
                    .map(|p| Tensor::zeros(p.value.shape()))
                    .collect();
            }
            assert_eq!(
                self.velocity.len(),
                params.len(),
                "optimizer bound to a different parameter list"
            );
        }
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        for (i, p) in params.iter_mut().enumerate() {
            let Param { value, grad, .. } = &mut **p;
            assert_eq!(value.shape(), grad.shape(), "gradient shape mismatch");
            let (w, g) = (value.data_mut(), grad.data_mut());
            // One pass: each gradient element is zeroed by the iteration
            // that last reads it. Weight decay folds into that element,
            // momentum is v ← μv + g, and θ ← θ − lr·v (v = g without
            // momentum), each rounded as the tensor ops it replaces.
            if mu != 0.0 {
                let v = self.velocity[i].data_mut();
                assert_eq!(
                    v.len(),
                    w.len(),
                    "optimizer bound to a different parameter list"
                );
                for ((w, g), v) in w.iter_mut().zip(g.iter_mut()).zip(v.iter_mut()) {
                    let gi = if wd != 0.0 { *g + wd * *w } else { *g };
                    *v = *v * mu + gi;
                    *w += -lr * *v;
                    *g = 0.0;
                }
            } else {
                for (w, g) in w.iter_mut().zip(g.iter_mut()) {
                    let gi = if wd != 0.0 { *g + wd * *w } else { *g };
                    *w += -lr * gi;
                    *g = 0.0;
                }
            }
        }
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
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
            self.v = self.m.clone();
        }
        assert_eq!(self.m.len(), params.len());
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params
            .iter_mut()
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
        {
            let Param { value, grad, .. } = &mut **p;
            let gd = grad.data_mut();
            let pv = value.data_mut();
            let md = m.data_mut();
            let vd = v.data_mut();
            for i in 0..pv.len() {
                // Zeroed where it is read: one pass over the gradient.
                let g = std::mem::take(&mut gd[i]);
                let mi = self.beta1 * md[i] + (1.0 - self.beta1) * g;
                let vi = self.beta2 * vd[i] + (1.0 - self.beta2) * g * g;
                md[i] = mi;
                vd[i] = vi;
                let mhat = mi / b1t;
                let vhat = vi / b2t;
                pv[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
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
}
