//! Elementwise activation layers.

use super::{keep, Layer, Slot, SlotMap};
use crate::tensor::Tensor;

macro_rules! activation_layer {
    ($(#[$doc:meta])* $name:ident, $label:expr, $fwd:expr, $dfdy:expr) => {
        $(#[$doc])*
        #[derive(Clone, Default)]
        pub struct $name {
            saved_output: SlotMap<Tensor>,
        }

        impl $name {
            /// New activation layer.
            pub fn new() -> Self {
                Self::default()
            }
        }

        impl Layer for $name {
            fn name(&self) -> &str {
                $label
            }

            fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor {
                let f: fn(f32) -> f32 = $fwd;
                let y = x.map(f);
                self.saved_output.insert(slot, y.clone());
                y
            }

            fn backward_input(
                &mut self,
                grad_out: Tensor,
                slot: Slot,
                input_grad: bool,
            ) -> Option<Tensor> {
                // The saved output is consumed here, so its buffer becomes
                // the gradient in place — backward allocates nothing.
                let mut y = self
                    .saved_output
                    .remove(slot)
                    .unwrap_or_else(|| panic!("{}: no saved output for slot {slot}", $label));
                let d: fn(f32) -> f32 = $dfdy;
                y.zip_inplace(&grad_out, |yv, g| g * d(yv));
                grad_out.recycle();
                keep(y, input_grad)
            }

            fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
                input_shape.to_vec()
            }

            fn flops_per_sample(&self, input_shape: &[usize]) -> f64 {
                input_shape.iter().product::<usize>() as f64
            }

            fn clear_slots(&mut self) {
                self.saved_output.clear();
            }

            fn clear_slot(&mut self, slot: Slot) {
                if let Some(t) = self.saved_output.remove(slot) {
                    t.recycle();
                }
            }

            fn cached_bytes(&self) -> u64 {
                self.saved_output.values().map(|t| t.len() as u64 * 4).sum()
            }

            fn clone_box(&self) -> Box<dyn Layer> {
                Box::new(self.clone())
            }
        }
    };
}

activation_layer!(
    /// Rectified linear unit: `max(0, x)`.
    Relu,
    "relu",
    |x| if x > 0.0 { x } else { 0.0 },
    |y| if y > 0.0 { 1.0 } else { 0.0 }
);

activation_layer!(
    /// Hyperbolic tangent.
    Tanh,
    "tanh",
    |x| x.tanh(),
    |y| 1.0 - y * y
);

activation_layer!(
    /// Logistic sigmoid.
    Sigmoid,
    "sigmoid",
    |x| 1.0 / (1.0 + (-x).exp()),
    |y| y * (1.0 - y)
);

/// Row-wise softmax over `[batch, classes]` inputs.
///
/// Usually fused into [`crate::loss::softmax_cross_entropy`] for training;
/// exposed as a layer for inference heads and for models whose loss is
/// computed elsewhere.
#[derive(Clone, Default)]
pub struct Softmax {
    saved_output: SlotMap<Tensor>,
}

impl Softmax {
    /// New softmax layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Softmax {
    fn name(&self) -> &str {
        "softmax"
    }

    fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor {
        let (b, k) = (x.rows(), x.cols());
        let x2 = x.reshape(&[b, k]);
        let mut y = Tensor::zeros(&[b, k]);
        for r in 0..b {
            let row = &x2.data()[r * k..(r + 1) * k];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let yrow = &mut y.data_mut()[r * k..(r + 1) * k];
            let mut z = 0.0;
            for (o, &v) in yrow.iter_mut().zip(row.iter()) {
                *o = (v - max).exp();
                z += *o;
            }
            for o in yrow.iter_mut() {
                *o /= z;
            }
        }
        x2.recycle();
        self.saved_output.insert(slot, y.clone());
        y
    }

    fn backward_input(&mut self, grad_out: Tensor, slot: Slot, input_grad: bool) -> Option<Tensor> {
        let y = self
            .saved_output
            .remove(slot)
            .unwrap_or_else(|| panic!("softmax: no saved output for slot {slot}"));
        let (b, k) = (y.rows(), y.cols());
        let g = grad_out.reshape(&[b, k]);
        let mut dx = Tensor::zeros(&[b, k]);
        // dx_i = y_i (g_i − Σ_j g_j y_j)
        for r in 0..b {
            let dot: f32 = (0..k).map(|c| g.at(r, c) * y.at(r, c)).sum();
            for c in 0..k {
                *dx.at_mut(r, c) = y.at(r, c) * (g.at(r, c) - dot);
            }
        }
        for t in [y, g, grad_out] {
            t.recycle();
        }
        keep(dx, input_grad)
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    fn flops_per_sample(&self, input_shape: &[usize]) -> f64 {
        3.0 * input_shape.iter().product::<usize>() as f64
    }

    fn clear_slots(&mut self) {
        self.saved_output.clear();
    }

    fn clear_slot(&mut self, slot: Slot) {
        if let Some(t) = self.saved_output.remove(slot) {
            t.recycle();
        }
    }

    fn cached_bytes(&self) -> u64 {
        self.saved_output.values().map(|t| t.len() as u64 * 4).sum()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn relu_clips_negatives() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_slice(&[-1.0, 0.0, 2.0]), 0);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let mut r = Relu::new();
        r.forward(&Tensor::from_slice(&[-1.0, 2.0]), 0);
        let g = r.backward(&Tensor::from_slice(&[5.0, 5.0]), 0);
        assert_eq!(g.data(), &[0.0, 5.0]);
    }

    #[test]
    fn tanh_gradcheck() {
        check_layer_gradients(&mut Tanh::new(), &[3, 4], 5);
    }

    #[test]
    fn sigmoid_gradcheck() {
        check_layer_gradients(&mut Sigmoid::new(), &[2, 6], 6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut s = Softmax::new();
        let x = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let y = s.forward(&x, 0);
        for r in 0..2 {
            let sum: f32 = (0..3).map(|c| y.at(r, c)).sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!((0..3).all(|c| y.at(r, c) > 0.0));
        }
        // Monotone: larger logits get larger probabilities.
        assert!(y.at(0, 2) > y.at(0, 0));
    }

    #[test]
    fn softmax_gradcheck() {
        check_layer_gradients(&mut Softmax::new(), &[2, 4], 9);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let mut s = Softmax::new();
        let y = s.forward(&Tensor::from_vec(&[1, 2], vec![1000.0, 999.0]), 0);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn slots_do_not_interfere() {
        let mut t = Tanh::new();
        t.forward(&Tensor::from_slice(&[0.0]), 1);
        t.forward(&Tensor::from_slice(&[100.0]), 2);
        // slot 1's output is tanh(0)=0, derivative 1.
        let g = t.backward(&Tensor::from_slice(&[3.0]), 1);
        assert!((g.data()[0] - 3.0).abs() < 1e-6);
    }
}
