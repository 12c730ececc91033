//! Learned scaling layer.

use super::{Layer, Param, Slot, SlotMap};
use crate::tensor::Tensor;

/// Per-feature learned scale `y = x ⊙ γ` over `[batch, features]` inputs —
/// a lightweight stand-in for normalization layers that keeps a small,
/// distinct parameter shape useful in stage-partitioning tests.
#[derive(Clone)]
pub struct Scale {
    gamma: Param,
    features: usize,
    saved_input: SlotMap<Tensor>,
}

impl Scale {
    /// Scale layer initialized to the identity (γ = 1).
    pub fn new(features: usize) -> Self {
        Scale {
            gamma: Param::new("gamma", Tensor::full(&[features], 1.0)),
            features,
            saved_input: SlotMap::new(),
        }
    }
}

impl Layer for Scale {
    fn name(&self) -> &str {
        "scale"
    }

    fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor {
        assert_eq!(x.cols(), self.features, "scale: feature mismatch");
        let g = self.gamma.value.data();
        let mut y = x.reshape(&[x.rows(), self.features]);
        for r in 0..y.rows() {
            for c in 0..self.features {
                *y.at_mut(r, c) *= g[c];
            }
        }
        self.saved_input
            .insert(slot, x.reshape(&[x.rows(), self.features]));
        y
    }

    fn backward(&mut self, grad_out: &Tensor, slot: Slot) -> Tensor {
        let x = self
            .saved_input
            .remove(slot)
            .unwrap_or_else(|| panic!("scale: no saved input for slot {slot}"));
        let gamma = &mut self.gamma;
        let g = gamma.value.data();
        let gg = gamma.grad.data_mut();
        let mut dx = grad_out.clone();
        for r in 0..x.rows() {
            for c in 0..self.features {
                gg[c] += grad_out.at(r, c) * x.at(r, c);
                *dx.at_mut(r, c) = grad_out.at(r, c) * g[c];
            }
        }
        x.recycle();
        dx
    }

    fn visit_params<'a>(&'a self, f: &mut dyn FnMut(&'a Param)) {
        f(&self.gamma);
    }

    fn visit_params_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        f(&mut self.gamma);
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    fn flops_per_sample(&self, input_shape: &[usize]) -> f64 {
        input_shape.iter().product::<usize>() as f64
    }

    fn clear_slots(&mut self) {
        self.saved_input.clear();
    }

    fn clear_slot(&mut self, slot: Slot) {
        if let Some(t) = self.saved_input.remove(slot) {
            t.recycle();
        }
    }

    fn cached_bytes(&self) -> u64 {
        self.saved_input.values().map(|t| t.len() as u64 * 4).sum()
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
    fn identity_at_init() {
        let mut s = Scale::new(3);
        let x = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(s.forward(&x, 0), x);
    }

    #[test]
    fn gradcheck() {
        check_layer_gradients(&mut Scale::new(4), &[3, 4], 23);
    }
}
