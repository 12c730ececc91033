//! Fully-connected layer.

use super::{Layer, Param, Slot, SlotMap};
use crate::init;
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// `y = x·W + b`, with `W: [in, out]` and `b: [out]`.
#[derive(Clone)]
pub struct Linear {
    name: String,
    weight: Param,
    bias: Param,
    saved_input: SlotMap<Tensor>,
}

impl Linear {
    /// Xavier-initialized linear layer.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        let w = init::xavier(in_features, out_features, rng);
        Linear::from_weights(w, Tensor::zeros(&[out_features]))
    }

    /// Build from explicit weights (for tests and deterministic fixtures).
    pub fn from_weights(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.shape().len(), 2, "weight must be [in, out]");
        let (in_features, out_features) = (weight.shape()[0], weight.shape()[1]);
        assert_eq!(bias.shape(), &[out_features], "bias must be [out]");
        Linear {
            name: format!("linear{in_features}x{out_features}"),
            weight: Param::new("weight", weight),
            bias: Param::new("bias", bias),
            saved_input: SlotMap::new(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape()[1]
    }

    /// Accumulate `slot`'s weight and bias gradients from `g`, the output
    /// gradient as a `[rows, out]` matrix.
    fn param_grads(&mut self, g: &Tensor, slot: Slot) {
        let x = self
            .saved_input
            .remove(slot)
            .unwrap_or_else(|| panic!("{}: no saved input for slot {slot}", self.name));
        // dW += xᵀ·g (transpose folded into A's packing, accumulation
        // fused into the kernel); db = column sums of g.
        self.weight.grad.add_matmul_tn(&x, g);
        let out = self.out_features();
        let db = self.bias.grad.data_mut();
        for row in g.data().chunks_exact(out) {
            for (d, &gv) in db.iter_mut().zip(row.iter()) {
                *d += gv;
            }
        }
        x.recycle();
    }

    /// `grad_out` reshaped to `[rows, out]`, or `None` when it already is
    /// that matrix and can be used as it is.
    fn as_matrix(&self, grad_out: &Tensor) -> Option<Tensor> {
        let (rows, out) = (grad_out.rows(), self.out_features());
        (grad_out.shape() != [rows, out]).then(|| grad_out.reshape(&[rows, out]))
    }
}

impl Layer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor {
        assert_eq!(
            x.cols(),
            self.in_features(),
            "{}: input has {} features",
            self.name,
            x.cols()
        );
        let x2 = x.reshape(&[x.rows(), self.in_features()]);
        // Bias is broadcast-added *after* the product in both kernel
        // backends, so fast and naive forwards share a summation order.
        let mut y = x2.matmul(&self.weight.value);
        let b = self.bias.value.data();
        let out = self.out_features();
        for row in y.data_mut().chunks_exact_mut(out) {
            for (v, &bv) in row.iter_mut().zip(b.iter()) {
                *v += bv;
            }
        }
        self.saved_input.insert(slot, x2);
        y
    }

    fn backward(&mut self, grad_out: &Tensor, slot: Slot) -> Tensor {
        let reshaped = self.as_matrix(grad_out);
        let g = reshaped.as_ref().unwrap_or(grad_out);
        self.param_grads(g, slot);
        // dx = g·Wᵀ, which the GEMM computes as (W·gᵀ)ᵀ: W is read in
        // place and only g is packed.
        let dx = g.matmul_nt(&self.weight.value);
        if let Some(r) = reshaped {
            r.recycle();
        }
        dx
    }

    fn backward_params(&mut self, grad_out: &Tensor, slot: Slot) {
        let reshaped = self.as_matrix(grad_out);
        self.param_grads(reshaped.as_ref().unwrap_or(grad_out), slot);
        if let Some(r) = reshaped {
            r.recycle();
        }
    }

    fn visit_params<'a>(&'a self, f: &mut dyn FnMut(&'a Param)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], self.out_features()]
    }

    fn flops_per_sample(&self, _input_shape: &[usize]) -> f64 {
        2.0 * self.in_features() as f64 * self.out_features() as f64
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
    use crate::init::rng;

    #[test]
    fn forward_matches_manual() {
        let w = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_slice(&[0.5, -0.5]);
        let mut l = Linear::from_weights(w, b);
        let x = Tensor::from_vec(&[1, 2], vec![1., 1.]);
        let y = l.forward(&x, 0);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut l = Linear::new(3, 4, &mut rng(1));
        check_layer_gradients(&mut l, &[2, 3], 11);
    }

    #[test]
    fn gradients_match_on_nonsquare_shapes_crossing_tile_edges() {
        // 17→9 with batch 5 exercises every partial-tile path of the MR × NR
        // micro-kernel, 6 × 32 with AVX-512 (m, n and k all off its grid).
        let mut l = Linear::new(17, 9, &mut rng(4));
        check_layer_gradients(&mut l, &[5, 17], 13);
    }

    #[test]
    fn multiple_slots_are_independent() {
        let mut l = Linear::new(2, 2, &mut rng(2));
        let x0 = Tensor::from_vec(&[1, 2], vec![1.0, 0.0]);
        let x1 = Tensor::from_vec(&[1, 2], vec![0.0, 1.0]);
        l.forward(&x0, 0);
        l.forward(&x1, 1);
        // Backward slot 0 uses x0, not x1: dW row 1 must stay zero.
        let g = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        l.backward(&g, 0);
        let dw = &l.weight.grad;
        assert!(dw.at(0, 0) != 0.0);
        assert_eq!(dw.at(1, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "no saved input")]
    fn backward_without_forward_panics() {
        let mut l = Linear::new(2, 2, &mut rng(3));
        l.backward(&Tensor::zeros(&[1, 2]), 7);
    }
}
