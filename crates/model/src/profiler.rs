//! The real profiling path (paper §3.1, "Profiler").
//!
//! PipeDream profiles a model with a short run on a single GPU, recording
//! per-layer compute time, output activation size, and weight size. This
//! module does the same for a `pipedream-tensor` [`Sequential`] model: run a
//! few minibatches, time each layer's forward and backward pass with a
//! monotonic clock, and read sizes off the tensors.
//!
//! The emitted [`ModelProfile`] expresses compute as *equivalent FLOPs on
//! the calibration device* so the rest of the pipeline (planner, simulator)
//! can treat measured and architecture-derived profiles identically.

use crate::profile::{LayerProfile, ModelProfile};
use pipedream_hw::{Device, Precision};
use pipedream_tensor::layers::Slot;
use pipedream_tensor::{Layer, Sequential, Tensor};
use std::time::Instant;

/// Per-layer timing variability across profiled inputs.
///
/// §3.1: "PipeDream exploits the fact that DNN training shows little
/// variance in computation time across inputs" — this is what justifies
/// profiling once and planning statically. [`profile_with_stats`] measures
/// it so the assumption can be checked on any model.
#[derive(Debug, Clone)]
pub struct ProfileStats {
    /// Per layer, the mean across inputs of each input's fastest forward
    /// time, in seconds.
    pub fwd_mean_s: Vec<f64>,
    /// Per layer, the coefficient of variation (std / mean) across inputs
    /// of each input's fastest forward time. The fastest of several runs
    /// drops what preemption adds to a run, which is not the input's doing
    /// and dominated a CV over repeats on a busy machine.
    pub input_cv: Vec<f64>,
}

impl ProfileStats {
    /// The largest per-layer coefficient of variation across inputs.
    pub fn worst_cv(&self) -> f64 {
        self.input_cv.iter().copied().fold(0.0, f64::max)
    }
}

/// Like [`profile_sequential`] on `inputs[0]`, but also returns how each
/// layer's forward time varies across `inputs`: each input is run
/// `repeats` times and timed at its fastest, after `warmup` unmeasured
/// forwards of the first.
pub fn profile_with_stats(
    model: &mut Sequential,
    inputs: &[Tensor],
    warmup: usize,
    repeats: usize,
    calibration_device: &Device,
) -> (ModelProfile, ProfileStats) {
    assert!(inputs.len() >= 2, "variance needs at least two inputs");
    assert!(repeats >= 1, "need at least one measured run an input");
    let n = model.len();
    // One forward of `x`, each layer's time lowering its entry of `best`.
    let mut slot: Slot = 1_000_000;
    let mut forward = |model: &mut Sequential, x: &Tensor, best: &mut [f64]| {
        let mut cur = x.clone();
        for (layer, best) in model.layers_mut().iter_mut().zip(best.iter_mut()) {
            let t0 = Instant::now();
            let out = layer.forward(&cur, slot);
            *best = best.min(t0.elapsed().as_secs_f64());
            cur = out;
        }
        model.clear_slots();
        slot += 1;
    };
    let mut best = vec![f64::INFINITY; n];
    for _ in 0..warmup {
        forward(model, &inputs[0], &mut best);
    }
    let mut minima: Vec<Vec<f64>> = vec![Vec::with_capacity(inputs.len()); n];
    for x in inputs {
        best.fill(f64::INFINITY);
        for _ in 0..repeats {
            forward(model, x, &mut best);
        }
        for (m, &b) in minima.iter_mut().zip(&best) {
            m.push(b);
        }
    }
    let mut fwd_mean_s = Vec::with_capacity(n);
    let mut input_cv = Vec::with_capacity(n);
    for times in &minima {
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let var = times.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / times.len() as f64;
        fwd_mean_s.push(mean);
        input_cv.push(if mean > 0.0 { var.sqrt() / mean } else { 0.0 });
    }
    let profile = profile_sequential(model, &inputs[0], warmup, repeats, calibration_device);
    (
        profile,
        ProfileStats {
            fwd_mean_s,
            input_cv,
        },
    )
}

/// Profile `model` by running `warmup + iters` minibatches of `input` and
/// timing every layer. The timings are converted to FLOPs using
/// `calibration_device` so the profile can be retargeted.
///
/// Mirrors the paper's profiling step (1000 minibatches on one GPU); use a
/// smaller `iters` for tests.
pub fn profile_sequential(
    model: &mut Sequential,
    input: &Tensor,
    warmup: usize,
    iters: usize,
    calibration_device: &Device,
) -> ModelProfile {
    assert!(iters >= 1, "need at least one measured iteration");
    let batch = input.shape()[0];
    let n = model.len();
    let mut fwd_s = vec![0.0f64; n];
    let mut bwd_s = vec![0.0f64; n];
    let mut act_elems = vec![0u64; n];
    let mut weight_params = vec![0u64; n];

    for (i, layer) in model.layers().iter().enumerate() {
        weight_params[i] = layer.param_count() as u64;
    }

    for it in 0..warmup + iters {
        let measured = it >= warmup;
        let mut cur = input.clone();
        let slot: Slot = it as Slot;
        // Forward, layer by layer.
        let mut acts: Vec<Tensor> = Vec::with_capacity(n);
        for i in 0..n {
            let t0 = Instant::now();
            // Safety valve: layers are profiled through the Sequential's own
            // list; indexing is by construction in range.
            let out = {
                // Borrow each layer mutably one at a time.
                let layers = model_layers_mut(model);
                layers[i].forward(&cur, slot)
            };
            if measured {
                fwd_s[i] += t0.elapsed().as_secs_f64();
                act_elems[i] = out.len() as u64 / batch as u64;
            }
            acts.push(out.clone());
            cur = out;
        }
        // Backward with a unit gradient.
        let mut grad = Tensor::full(acts[n - 1].shape(), 1.0 / acts[n - 1].len() as f32);
        for i in (0..n).rev() {
            let t0 = Instant::now();
            let g = {
                let layers = model_layers_mut(model);
                layers[i].backward(&grad, slot)
            };
            if measured {
                bwd_s[i] += t0.elapsed().as_secs_f64();
            }
            grad = g;
        }
        model.zero_grad();
    }

    let sustained = calibration_device.sustained_flops(Precision::Fp32);
    let layers = (0..n)
        .map(|i| {
            let fwd = fwd_s[i] / iters as f64;
            let bwd = bwd_s[i] / iters as f64;
            LayerProfile {
                name: model.layers()[i].name().to_string(),
                flops_fwd: (fwd / batch as f64) * sustained,
                bwd_factor: if fwd > 0.0 { (bwd / fwd).max(0.1) } else { 2.0 },
                activation_elems: act_elems[i],
                weight_params: weight_params[i],
            }
        })
        .collect();

    ModelProfile {
        name: model.name().to_string(),
        layers,
        default_batch: batch,
        input_elems: (input.len() / batch) as u64,
    }
}

/// Mutable access to a `Sequential`'s layer list.
///
/// `Sequential` deliberately exposes only immutable layer access in its
/// public API; the profiler needs per-layer mutation, which it gets through
/// this local shim built on `split_at_mut`-free interior indexing.
fn model_layers_mut(model: &mut Sequential) -> &mut [Box<dyn pipedream_tensor::Layer>] {
    // Sequential stores layers in declaration order; expose them mutably.
    model.layers_mut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipedream_tensor::init::rng;
    use pipedream_tensor::layers::{Linear, Relu};

    fn mlp() -> Sequential {
        let mut r = rng(1);
        Sequential::new("prof-mlp")
            .push(Linear::new(16, 64, &mut r))
            .push(Relu::new())
            .push(Linear::new(64, 4, &mut r))
    }

    #[test]
    fn profile_captures_shapes_and_params() {
        let mut m = mlp();
        let x = Tensor::zeros(&[8, 16]);
        let p = profile_sequential(&mut m, &x, 1, 2, &Device::v100());
        assert_eq!(p.num_layers(), 3);
        assert_eq!(p.layers[0].activation_elems, 64);
        assert_eq!(p.layers[2].activation_elems, 4);
        assert_eq!(p.layers[0].weight_params, 16 * 64 + 64);
        assert_eq!(p.layers[1].weight_params, 0);
        assert_eq!(p.default_batch, 8);
    }

    #[test]
    fn linear_layers_dominate_relu() {
        // Use a wide layer so the matmul/ReLU gap swamps timing noise.
        let mut r = rng(2);
        let mut m = Sequential::new("wide")
            .push(Linear::new(256, 512, &mut r))
            .push(Relu::new());
        let x = Tensor::zeros(&[64, 256]);
        let p = profile_sequential(&mut m, &x, 2, 5, &Device::v100());
        // The 256×512 matmul must cost more than the elementwise ReLU.
        assert!(
            p.layers[0].flops_fwd > p.layers[1].flops_fwd,
            "linear {} vs relu {}",
            p.layers[0].flops_fwd,
            p.layers[1].flops_fwd
        );
    }

    fn inputs(scales: &[f32]) -> Vec<Tensor> {
        scales
            .iter()
            .enumerate()
            .map(|(k, &s)| pipedream_tensor::init::normal(&[64, 256], s, &mut rng(10 + k as u64)))
            .collect()
    }

    #[test]
    fn computation_time_has_low_variance() {
        // A heavyweight layer pair, six inputs of different content and
        // scale, each timed at its fastest of five runs.
        let mut r = rng(3);
        let mut m = Sequential::new("var")
            .push(Linear::new(256, 1024, &mut r))
            .push(Linear::new(1024, 256, &mut r));
        let xs = inputs(&[0.0, 0.1, 1.0, 10.0, 1e3, 1e-3]);
        let (_, stats) = profile_with_stats(&mut m, &xs, 3, 5, &Device::v100());
        assert_eq!(stats.input_cv.len(), 2);
        assert!(
            stats.worst_cv() < 1.0,
            "forward-time CV across inputs {:.3} unexpectedly high",
            stats.worst_cv()
        );
        assert!(stats.fwd_mean_s.iter().all(|&t| t > 0.0));
    }

    /// A layer whose time grows with its input: work proportional to the
    /// magnitude of the input's first element.
    #[derive(Clone)]
    struct InputDependent;

    impl Layer for InputDependent {
        fn name(&self) -> &str {
            "input-dependent"
        }
        fn forward(&mut self, x: &Tensor, _slot: Slot) -> Tensor {
            let spins = (x.data()[0].abs() * 2e4) as u64;
            let mut acc = 0u64;
            for i in 0..spins {
                acc = std::hint::black_box(acc.wrapping_add(i));
            }
            std::hint::black_box(acc);
            x.clone()
        }
        fn backward_input(&mut self, g: Tensor, _slot: Slot, _input_grad: bool) -> Option<Tensor> {
            Some(g)
        }
        fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
            input_shape.to_vec()
        }
        fn clear_slots(&mut self) {}
        fn clone_box(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn input_dependent_time_fails_the_variance_bound() {
        // The measure the test above bounds does see a layer whose time
        // depends on its input: work in proportion 0 : 1 : 4 : 16 : 64.
        let mut m = Sequential::new("planted").push(InputDependent);
        let xs: Vec<Tensor> = [0.0f32, 1.0, 4.0, 16.0, 64.0]
            .iter()
            .map(|&v| Tensor::full(&[4, 4], v))
            .collect();
        let (_, stats) = profile_with_stats(&mut m, &xs, 0, 3, &Device::v100());
        assert!(
            stats.input_cv[0] >= 1.0,
            "an input-dependent layer reads CV {:.3}",
            stats.input_cv[0]
        );
    }

    #[test]
    fn profile_times_are_positive() {
        let mut m = mlp();
        let x = Tensor::zeros(&[8, 16]);
        let p = profile_sequential(&mut m, &x, 0, 2, &Device::v100());
        for l in &p.layers {
            assert!(l.flops_fwd >= 0.0);
            assert!(l.bwd_factor > 0.0);
        }
    }
}
