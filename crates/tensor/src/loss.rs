//! Loss functions.

use crate::tensor::Tensor;

/// Result of a loss computation: scalar loss plus gradient w.r.t. the
/// network output (already averaged over the minibatch).
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Mean loss over the minibatch.
    pub loss: f32,
    /// Gradient of the mean loss w.r.t. the logits/predictions.
    pub grad: Tensor,
    /// Number of correctly classified samples (classification losses only).
    pub correct: usize,
}

/// Softmax + cross-entropy over `[batch, classes]` logits with integer
/// labels. Numerically stabilised by subtracting the per-row max.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> LossOutput {
    assert_eq!(logits.shape().len(), 2, "logits must be [batch, classes]");
    let (b, k) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(b, labels.len(), "batch/labels length mismatch");
    let mut grad = Tensor::zeros(&[b, k]);
    let mut total = 0.0f64;
    let mut correct = 0usize;
    // Each row's exponentials are built in its gradient row, which the
    // last loop turns into the gradient in place: no buffer per row.
    for (r, g) in grad.data_mut().chunks_exact_mut(k).enumerate() {
        let row = &logits.data()[r * k..(r + 1) * k];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for (e, &v) in g.iter_mut().zip(row) {
            *e = (v - max).exp();
        }
        let z: f32 = g.iter().sum();
        let label = labels[r];
        assert!(label < k, "label {label} out of range");
        let p_label = g[label] / z;
        total += -(p_label.max(1e-12) as f64).ln();
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        if pred == label {
            correct += 1;
        }
        for (c, e) in g.iter_mut().enumerate() {
            let p = *e / z;
            *e = (p - if c == label { 1.0 } else { 0.0 }) / b as f32;
        }
    }
    LossOutput {
        loss: (total / b as f64) as f32,
        grad,
        correct,
    }
}

/// Mean squared error between predictions and targets of equal shape.
pub fn mse_loss(pred: &Tensor, target: &Tensor) -> LossOutput {
    assert_eq!(pred.shape(), target.shape(), "mse shape mismatch");
    let n = pred.len() as f32;
    let diff = pred.sub(target);
    let loss = diff.sq_norm() / n;
    let grad = diff.scale(2.0 / n);
    LossOutput {
        loss,
        grad,
        correct: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_k() {
        let logits = Tensor::zeros(&[4, 8]);
        let out = softmax_cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((out.loss - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Tensor::zeros(&[1, 3]);
        *logits.at_mut(0, 2) = 10.0;
        let out = softmax_cross_entropy(&logits, &[2]);
        assert!(out.loss < 1e-3);
        assert_eq!(out.correct, 1);
    }

    #[test]
    fn ce_gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(&[2, 3], vec![0.5, -1.0, 2.0, 0.1, 0.2, 0.3]);
        let labels = [2usize, 0usize];
        let out = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let num = (softmax_cross_entropy(&lp, &labels).loss
                - softmax_cross_entropy(&lm, &labels).loss)
                / (2.0 * eps);
            assert!(
                (num - out.grad.data()[i]).abs() < 1e-3,
                "grad[{i}] numeric {num} vs {}",
                out.grad.data()[i]
            );
        }
    }

    #[test]
    fn mse_of_equal_tensors_is_zero() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let out = mse_loss(&t, &t);
        assert_eq!(out.loss, 0.0);
        assert!(out.grad.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn mse_gradient_direction() {
        let pred = Tensor::from_slice(&[2.0]);
        let target = Tensor::from_slice(&[0.0]);
        let out = mse_loss(&pred, &target);
        assert_eq!(out.loss, 4.0);
        assert_eq!(out.grad.data(), &[4.0]);
    }
}
