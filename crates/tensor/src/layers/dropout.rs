//! Inverted dropout.

use super::{Layer, Slot, SlotMap};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inverted dropout: at train time each element is zeroed with probability
/// `p` and survivors are scaled by `1/(1-p)`; at eval time it is the
/// identity.
///
/// The mask RNG is seeded per `(layer seed, slot)` so training runs are
/// deterministic regardless of minibatch interleaving — a property the
/// pipeline runtime's determinism tests rely on.
#[derive(Clone)]
pub struct Dropout {
    p: f32,
    seed: u64,
    training: bool,
    saved_mask: SlotMap<Vec<f32>>,
}

impl Dropout {
    /// Dropout with drop probability `p` in `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        Dropout {
            p,
            seed,
            training: true,
            saved_mask: SlotMap::new(),
        }
    }

    /// Toggle training mode (mask on) vs evaluation mode (identity).
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }
}

impl Layer for Dropout {
    fn name(&self) -> &str {
        "dropout"
    }

    fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor {
        if !self.training || self.p == 0.0 {
            // Identity; remember an empty mask so backward stays uniform.
            self.saved_mask.insert(slot, Vec::new());
            return x.clone();
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ slot.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask: Vec<f32> = (0..x.len())
            .map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 })
            .collect();
        let mut y = x.clone();
        for (v, &m) in y.data_mut().iter_mut().zip(mask.iter()) {
            *v *= m;
        }
        self.saved_mask.insert(slot, mask);
        y
    }

    fn backward(&mut self, grad_out: &Tensor, slot: Slot) -> Tensor {
        let mask = self
            .saved_mask
            .remove(slot)
            .unwrap_or_else(|| panic!("dropout: no saved mask for slot {slot}"));
        if mask.is_empty() {
            return grad_out.clone();
        }
        let mut dx = grad_out.clone();
        for (v, &m) in dx.data_mut().iter_mut().zip(mask.iter()) {
            *v *= m;
        }
        dx
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }

    fn clear_slots(&mut self) {
        self.saved_mask.clear();
    }

    fn clear_slot(&mut self, slot: Slot) {
        self.saved_mask.remove(slot);
    }

    fn cached_bytes(&self) -> u64 {
        self.saved_mask.values().map(|m| m.len() as u64 * 4).sum()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        d.set_training(false);
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(d.forward(&x, 0), x);
    }

    #[test]
    fn mask_is_deterministic_per_slot() {
        let mut a = Dropout::new(0.5, 42);
        let mut b = Dropout::new(0.5, 42);
        let x = Tensor::full(&[64], 1.0);
        assert_eq!(a.forward(&x, 3), b.forward(&x, 3));
        // A different slot draws a different mask.
        assert_ne!(a.forward(&x, 4), b.forward(&x, 5));
    }

    #[test]
    fn expectation_is_preserved() {
        let mut d = Dropout::new(0.3, 7);
        let x = Tensor::full(&[10_000], 1.0);
        let y = d.forward(&x, 0);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut d = Dropout::new(0.5, 9);
        let x = Tensor::full(&[32], 1.0);
        let y = d.forward(&x, 0);
        let g = d.backward(&Tensor::full(&[32], 1.0), 0);
        // Gradient passes exactly where the forward did.
        for (yv, gv) in y.data().iter().zip(g.data().iter()) {
            assert_eq!(yv, gv);
        }
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn rejects_p_one() {
        Dropout::new(1.0, 0);
    }
}
