//! Finite-difference gradient checking used across layer tests.

use crate::init::{normal, rng};
use crate::layers::Layer;
use crate::tensor::Tensor;

/// Loss used by the checker: `L = Σ y²/2`, whose output gradient is `y`.
fn loss_and_grad(y: &Tensor) -> (f64, Tensor) {
    let loss = y
        .data()
        .iter()
        .map(|&v| (v as f64) * (v as f64) / 2.0)
        .sum();
    (loss, y.clone())
}

/// Check a layer's analytic gradients (input and parameter) against central
/// finite differences on a random input of shape `input_shape` (batch dim
/// included). Panics on mismatch.
///
/// Works for any [`Layer`]; tolerance is loose because everything is `f32`.
pub fn check_layer_gradients(layer: &mut dyn Layer, input_shape: &[usize], seed: u64) {
    let mut r = rng(seed);
    let x = normal(input_shape, 1.0, &mut r);
    const EPS: f32 = 1e-2;
    const TOL: f64 = 2e-2;

    // Analytic pass.
    layer.zero_grad();
    let y = layer.forward(&x, 0);
    let (_, gy) = loss_and_grad(&y);
    let dx = layer.backward(&gy, 0);
    let analytic_param_grads: Vec<Tensor> = layer.params().iter().map(|p| p.grad.clone()).collect();

    // Numeric input gradient.
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp.data_mut()[i] += EPS;
        let mut xm = x.clone();
        xm.data_mut()[i] -= EPS;
        let (lp, _) = loss_and_grad(&layer.forward(&xp, 1));
        layer.clear_slots();
        let (lm, _) = loss_and_grad(&layer.forward(&xm, 1));
        layer.clear_slots();
        let numeric = (lp - lm) / (2.0 * EPS as f64);
        let analytic = dx.data()[i] as f64;
        let denom = 1.0f64.max(numeric.abs()).max(analytic.abs());
        assert!(
            (numeric - analytic).abs() / denom < TOL,
            "input grad [{i}]: numeric {numeric:.5} vs analytic {analytic:.5}"
        );
    }

    // Numeric parameter gradients. Perturb one scalar at a time.
    let n_params = layer.params().len();
    for pi in 0..n_params {
        let plen = layer.params()[pi].value.len();
        for i in 0..plen {
            let orig = layer.params()[pi].value.data()[i];
            layer.params_mut()[pi].value.data_mut()[i] = orig + EPS;
            let (lp, _) = loss_and_grad(&layer.forward(&x, 1));
            layer.clear_slots();
            layer.params_mut()[pi].value.data_mut()[i] = orig - EPS;
            let (lm, _) = loss_and_grad(&layer.forward(&x, 1));
            layer.clear_slots();
            layer.params_mut()[pi].value.data_mut()[i] = orig;
            let numeric = (lp - lm) / (2.0 * EPS as f64);
            let analytic = analytic_param_grads[pi].data()[i] as f64;
            let denom = 1.0f64.max(numeric.abs()).max(analytic.abs());
            assert!(
                (numeric - analytic).abs() / denom < TOL,
                "param {pi} grad [{i}]: numeric {numeric:.5} vs analytic {analytic:.5}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Slot};
    use crate::Param;

    /// A deliberately wrong layer to prove the checker catches bugs.
    struct BrokenLinear(Linear);

    impl Layer for BrokenLinear {
        fn name(&self) -> &str {
            "broken"
        }
        fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor {
            self.0.forward(x, slot)
        }
        fn backward_input(
            &mut self,
            grad_out: Tensor,
            slot: Slot,
            input_grad: bool,
        ) -> Option<Tensor> {
            // Wrong: scales the true gradient by 2.
            let dx = self.0.backward_input(grad_out, slot, input_grad)?;
            Some(dx.scale(2.0))
        }
        fn backward_weight(&mut self, slot: Slot) {
            self.0.backward_weight(slot)
        }
        fn visit_params<'a>(&'a self, f: &mut dyn FnMut(&'a Param)) {
            self.0.visit_params(f)
        }
        fn visit_params_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
            self.0.visit_params_mut(f)
        }
        fn output_shape(&self, s: &[usize]) -> Vec<usize> {
            self.0.output_shape(s)
        }
        fn clear_slots(&mut self) {
            self.0.clear_slots()
        }
        fn clone_box(&self) -> Box<dyn Layer> {
            unimplemented!("test-only layer")
        }
    }

    #[test]
    #[should_panic(expected = "input grad")]
    fn checker_catches_wrong_gradient() {
        let mut broken = BrokenLinear(Linear::new(3, 3, &mut rng(9)));
        check_layer_gradients(&mut broken, &[2, 3], 10);
    }
}
