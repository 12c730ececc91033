//! Gated recurrent unit with explicit backpropagation through time.

use super::{Layer, Param, Slot, SlotMap};
use crate::init;
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// Per-timestep state saved by the forward pass.
struct StepCache {
    x: Tensor,      // [b, in]
    h_prev: Tensor, // [b, hidden]
    r: Tensor,      // [b, hidden] reset gate
    z: Tensor,      // [b, hidden] update gate
    n: Tensor,      // [b, hidden] candidate
    pre_hn: Tensor, // [b, hidden] h_prev·W_hn + b_hn (needed for r's grad)
}

impl StepCache {
    /// Hand the step's buffers back to the pool.
    fn recycle(self) {
        for t in [self.x, self.h_prev, self.r, self.z, self.n, self.pre_hn] {
            t.recycle();
        }
    }
}

/// A single-layer unidirectional GRU over `[batch, seq, in]` inputs,
/// producing `[batch, seq, hidden]` (zero initial state).
///
/// Gate layout in the fused matrices is `(r, z, n)`:
///
/// ```text
/// r = σ(x·W_xr + h·W_hr + b_r)      z = σ(x·W_xz + h·W_hz + b_z)
/// n = tanh(x·W_xn + r ⊙ (h·W_hn + b_hn))
/// h' = (1 − z) ⊙ n + z ⊙ h
/// ```
pub struct Gru {
    name: String,
    w_x: Param,  // [in, 3*hidden]
    w_h: Param,  // [hidden, 3*hidden]
    bias: Param, // [3*hidden] (b_r, b_z, b_hn)
    in_features: usize,
    hidden: usize,
    saved: SlotMap<Vec<StepCache>>,
}

impl Gru {
    /// Xavier-initialized GRU.
    pub fn new(in_features: usize, hidden: usize, rng: &mut StdRng) -> Self {
        Gru {
            name: format!("gru{in_features}x{hidden}"),
            w_x: Param::new("w_x", init::xavier(in_features, 3 * hidden, rng)),
            w_h: Param::new("w_h", init::xavier(hidden, 3 * hidden, rng)),
            bias: Param::new("bias", Tensor::zeros(&[3 * hidden])),
            in_features,
            hidden,
            saved: SlotMap::new(),
        }
    }

    fn sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }
}

impl Layer for Gru {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 3, "{}: want [b, seq, in], got {s:?}", self.name);
        let (b, t, d) = (s[0], s[1], s[2]);
        assert_eq!(d, self.in_features, "{}: feature mismatch", self.name);
        let hn = self.hidden;
        let mut h = Tensor::zeros(&[b, hn]);
        let mut out = Tensor::zeros(&[b, t, hn]);
        let mut caches = Vec::with_capacity(t);
        for step in 0..t {
            let mut xs = Tensor::zeros(&[b, d]);
            for row in 0..b {
                let src = (row * t + step) * d;
                xs.data_mut()[row * d..(row + 1) * d].copy_from_slice(&x.data()[src..src + d]);
            }
            // x-part and h-part of the gate pre-activations.
            let gx = xs.matmul(&self.w_x.value); // [b, 3h]
            let gh = h.matmul(&self.w_h.value); // [b, 3h]
            let bias = self.bias.value.data();
            let mut r = Tensor::zeros(&[b, hn]);
            let mut z = Tensor::zeros(&[b, hn]);
            let mut n = Tensor::zeros(&[b, hn]);
            let mut pre_hn = Tensor::zeros(&[b, hn]);
            let mut h_new = Tensor::zeros(&[b, hn]);
            for row in 0..b {
                for j in 0..hn {
                    let rv = Self::sigmoid(gx.at(row, j) + gh.at(row, j) + bias[j]);
                    let zv = Self::sigmoid(gx.at(row, hn + j) + gh.at(row, hn + j) + bias[hn + j]);
                    let hn_pre = gh.at(row, 2 * hn + j) + bias[2 * hn + j];
                    let nv = (gx.at(row, 2 * hn + j) + rv * hn_pre).tanh();
                    let hv = (1.0 - zv) * nv + zv * h.at(row, j);
                    *r.at_mut(row, j) = rv;
                    *z.at_mut(row, j) = zv;
                    *n.at_mut(row, j) = nv;
                    *pre_hn.at_mut(row, j) = hn_pre;
                    *h_new.at_mut(row, j) = hv;
                }
            }
            for row in 0..b {
                let dst = (row * t + step) * hn;
                out.data_mut()[dst..dst + hn]
                    .copy_from_slice(&h_new.data()[row * hn..(row + 1) * hn]);
            }
            gx.recycle();
            gh.recycle();
            caches.push(StepCache {
                x: xs,
                h_prev: h.clone(),
                r,
                z,
                n,
                pre_hn,
            });
            h.recycle();
            h = h_new;
        }
        h.recycle();
        self.saved.insert(slot, caches);
        out
    }

    fn backward(&mut self, grad_out: &Tensor, slot: Slot) -> Tensor {
        let caches = self
            .saved
            .remove(slot)
            .unwrap_or_else(|| panic!("{}: no saved state for slot {slot}", self.name));
        let t = caches.len();
        let (b, hn, d) = (caches[0].x.rows(), self.hidden, self.in_features);
        assert_eq!(grad_out.shape(), &[b, t, hn]);
        let mut dx = Tensor::zeros(&[b, t, d]);
        let mut dh_next = Tensor::zeros(&[b, hn]);
        for step in (0..t).rev() {
            let c = &caches[step];
            // dh = grad_out[:, step] + carry.
            let mut dh = dh_next.clone();
            for row in 0..b {
                for j in 0..hn {
                    *dh.at_mut(row, j) += grad_out.data()[(row * t + step) * hn + j];
                }
            }
            // Backprop through h' = (1−z)·n + z·h_prev.
            let mut dpre = Tensor::zeros(&[b, 3 * hn]); // (dr, dz, dn_x-pre) pre-activation grads
            let mut dh_prev = Tensor::zeros(&[b, hn]);
            // h-part pre-activation grads differ for the n gate (scaled by r).
            let mut dgh = Tensor::zeros(&[b, 3 * hn]);
            for row in 0..b {
                for j in 0..hn {
                    let (r, z, n) = (c.r.at(row, j), c.z.at(row, j), c.n.at(row, j));
                    let dh_v = dh.at(row, j);
                    let dn = dh_v * (1.0 - z) * (1.0 - n * n); // through tanh
                    let dz = dh_v * (c.h_prev.at(row, j) - n) * z * (1.0 - z);
                    let dr = dn * c.pre_hn.at(row, j) * r * (1.0 - r);
                    *dpre.at_mut(row, j) = dr;
                    *dpre.at_mut(row, hn + j) = dz;
                    *dpre.at_mut(row, 2 * hn + j) = dn; // x-side n pre-activation
                    *dgh.at_mut(row, j) = dr;
                    *dgh.at_mut(row, hn + j) = dz;
                    *dgh.at_mut(row, 2 * hn + j) = dn * r; // h-side scaled by r
                    *dh_prev.at_mut(row, j) = dh_v * z;
                }
            }
            // Parameter grads, accumulated inside the GEMM kernel with the
            // transposes folded into panel packing.
            self.w_x.grad.add_matmul_tn(&c.x, &dpre);
            self.w_h.grad.add_matmul_tn(&c.h_prev, &dgh);
            {
                let db = self.bias.grad.data_mut();
                for row in 0..b {
                    for j in 0..hn {
                        db[j] += dpre.at(row, j);
                        db[hn + j] += dpre.at(row, hn + j);
                        db[2 * hn + j] += dgh.at(row, 2 * hn + j); // b_hn sits inside r⊙(…)
                    }
                }
            }
            // Input and recurrent grads (transposes folded into GEMM; the
            // recurrent product accumulates straight into dh_prev).
            let dxs = dpre.matmul_nt(&self.w_x.value);
            for row in 0..b {
                let dst = (row * t + step) * d;
                dx.data_mut()[dst..dst + d].copy_from_slice(&dxs.data()[row * d..(row + 1) * d]);
            }
            dxs.recycle();
            dh_prev.add_matmul_nt(&dgh, &self.w_h.value);
            dh.recycle();
            dpre.recycle();
            dgh.recycle();
            dh_next.recycle();
            dh_next = dh_prev;
        }
        dh_next.recycle();
        caches.into_iter().for_each(StepCache::recycle);
        dx
    }

    fn visit_params<'a>(&'a self, f: &mut dyn FnMut(&'a Param)) {
        f(&self.w_x);
        f(&self.w_h);
        f(&self.bias);
    }

    fn visit_params_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Param)) {
        f(&mut self.w_x);
        f(&mut self.w_h);
        f(&mut self.bias);
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], input_shape[1], self.hidden]
    }

    fn flops_per_sample(&self, input_shape: &[usize]) -> f64 {
        let t = input_shape[0];
        2.0 * t as f64 * (3 * self.hidden * (self.in_features + self.hidden)) as f64
    }

    fn clear_slots(&mut self) {
        self.saved.clear();
    }

    fn clear_slot(&mut self, slot: Slot) {
        if let Some(caches) = self.saved.remove(slot) {
            caches.into_iter().for_each(StepCache::recycle);
        }
    }

    fn cached_bytes(&self) -> u64 {
        self.saved
            .values()
            .flatten()
            .map(|c| {
                (c.x.len() + c.h_prev.len() + c.r.len() + c.z.len() + c.n.len() + c.pre_hn.len())
                    as u64
                    * 4
            })
            .sum()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Gru {
            name: self.name.clone(),
            w_x: self.w_x.clone(),
            w_h: self.w_h.clone(),
            bias: self.bias.clone(),
            in_features: self.in_features,
            hidden: self.hidden,
            saved: SlotMap::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::init::rng;

    #[test]
    fn output_shape_is_b_t_h() {
        let mut g = Gru::new(3, 5, &mut rng(1));
        let y = g.forward(&Tensor::zeros(&[2, 4, 3]), 0);
        assert_eq!(y.shape(), &[2, 4, 5]);
    }

    #[test]
    fn gradcheck_short_sequence() {
        let mut g = Gru::new(3, 4, &mut rng(2));
        check_layer_gradients(&mut g, &[2, 3, 3], 5);
    }

    #[test]
    fn gradcheck_single_step() {
        let mut g = Gru::new(2, 3, &mut rng(3));
        check_layer_gradients(&mut g, &[3, 1, 2], 6);
    }

    #[test]
    fn gradcheck_nonsquare_crossing_tile_edges() {
        let mut g = Gru::new(9, 5, &mut rng(6));
        check_layer_gradients(&mut g, &[3, 2, 9], 7);
    }

    #[test]
    fn zero_everything_keeps_state_zero() {
        let mut g = Gru::new(2, 3, &mut rng(4));
        let y = g.forward(&Tensor::zeros(&[1, 3, 2]), 0);
        // n = tanh(0) = 0 and h_prev = 0 ⇒ h stays 0.
        assert!(y.data().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn param_count_matches_formula() {
        let g = Gru::new(7, 11, &mut rng(5));
        assert_eq!(g.param_count(), 7 * 33 + 11 * 33 + 33);
    }
}
