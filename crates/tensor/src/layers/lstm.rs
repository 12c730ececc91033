//! Long short-term memory layer with explicit backpropagation through time.

use super::{keep, Layer, Param, Slot, SlotMap};
use crate::init;
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// Cached per-timestep state saved by the forward pass.
struct StepCache {
    x: Tensor,      // [b, in]
    h_prev: Tensor, // [b, hidden]
    c_prev: Tensor, // [b, hidden]
    gates: Tensor,  // [b, 4*hidden] post-activation (i, f, g, o)
    c: Tensor,      // [b, hidden]
}

impl StepCache {
    /// Hand the step's buffers back to the pool.
    fn recycle(self) {
        for t in [self.x, self.h_prev, self.c_prev, self.gates, self.c] {
            t.recycle();
        }
    }
}

/// A single-layer unidirectional LSTM over `[batch, seq, in]` inputs,
/// producing `[batch, seq, hidden]` outputs (zero initial state).
///
/// Gate layout in the fused weight matrices is `(i, f, g, o)`:
///
/// ```text
/// i = σ(x·W_xi + h·W_hi + b_i)      f = σ(x·W_xf + h·W_hf + b_f)
/// g = tanh(x·W_xg + h·W_hg + b_g)   o = σ(x·W_xo + h·W_ho + b_o)
/// c' = f ⊙ c + i ⊙ g                h' = o ⊙ tanh(c')
/// ```
///
/// The backward pass is full BPTT; as with every layer in this crate, all
/// forward state is cached per [`Slot`] so several minibatches can be in
/// flight through a pipeline simultaneously.
pub struct Lstm {
    name: String,
    w_x: Param,  // [in, 4*hidden]
    w_h: Param,  // [hidden, 4*hidden]
    bias: Param, // [4*hidden]
    in_features: usize,
    hidden: usize,
    saved: SlotMap<Vec<StepCache>>,
}

impl Lstm {
    /// Xavier-initialized LSTM; forget-gate bias starts at 1 (standard
    /// practice for trainability).
    pub fn new(in_features: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let w_x = init::xavier(in_features, 4 * hidden, rng);
        let w_h = init::xavier(hidden, 4 * hidden, rng);
        let mut bias = Tensor::zeros(&[4 * hidden]);
        for f in hidden..2 * hidden {
            bias.data_mut()[f] = 1.0;
        }
        Lstm {
            name: format!("lstm{in_features}x{hidden}"),
            w_x: Param::new("w_x", w_x),
            w_h: Param::new("w_h", w_h),
            bias: Param::new("bias", bias),
            in_features,
            hidden,
            saved: SlotMap::new(),
        }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    fn sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }

    /// One forward step for a `[b, in]` slice.
    fn step(&self, x: &Tensor, h_prev: &Tensor, c_prev: &Tensor) -> StepCache {
        let b = x.rows();
        let hn = self.hidden;
        // pre = x·W_x + h·W_h + bias (recurrent product accumulated
        // directly into pre by the kernel — no temporary).
        let mut pre = x.matmul(&self.w_x.value);
        pre.add_matmul(h_prev, &self.w_h.value);
        let bias = self.bias.value.data();
        for r in 0..b {
            for cidx in 0..4 * hn {
                *pre.at_mut(r, cidx) += bias[cidx];
            }
        }
        // Activations: σ on i,f,o; tanh on g.
        let mut gates = pre;
        let mut c = Tensor::zeros(&[b, hn]);
        for r in 0..b {
            for j in 0..hn {
                let i = Self::sigmoid(gates.at(r, j));
                let f = Self::sigmoid(gates.at(r, hn + j));
                let g = gates.at(r, 2 * hn + j).tanh();
                let o = Self::sigmoid(gates.at(r, 3 * hn + j));
                *gates.at_mut(r, j) = i;
                *gates.at_mut(r, hn + j) = f;
                *gates.at_mut(r, 2 * hn + j) = g;
                *gates.at_mut(r, 3 * hn + j) = o;
                *c.at_mut(r, j) = f * c_prev.at(r, j) + i * g;
            }
        }
        StepCache {
            x: x.clone(),
            h_prev: h_prev.clone(),
            c_prev: c_prev.clone(),
            gates,
            c,
        }
    }
}

impl Layer for Lstm {
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
        let mut c = Tensor::zeros(&[b, hn]);
        let mut caches = Vec::with_capacity(t);
        let mut out = Tensor::zeros(&[b, t, hn]);
        for step in 0..t {
            // Slice timestep `step`: [b, d].
            let mut xs = Tensor::zeros(&[b, d]);
            for r in 0..b {
                let src = (r * t + step) * d;
                let dst = r * d;
                xs.data_mut()[dst..dst + d].copy_from_slice(&x.data()[src..src + d]);
            }
            let cache = self.step(&xs, &h, &c);
            xs.recycle();
            c.recycle();
            c = cache.c.clone();
            // h = o ⊙ tanh(c)
            let mut ht = Tensor::zeros(&[b, hn]);
            for r in 0..b {
                for j in 0..hn {
                    *ht.at_mut(r, j) = cache.gates.at(r, 3 * hn + j) * cache.c.at(r, j).tanh();
                }
            }
            for r in 0..b {
                let dst = (r * t + step) * hn;
                out.data_mut()[dst..dst + hn].copy_from_slice(&ht.data()[r * hn..(r + 1) * hn]);
            }
            h.recycle();
            h = ht;
            caches.push(cache);
        }
        h.recycle();
        c.recycle();
        self.saved.insert(slot, caches);
        out
    }

    /// Backpropagation through time: each step's weight gradients are
    /// stored as its input gradient is computed, so the weight half is
    /// [`Layer::backward_weight`]'s no-op.
    fn backward_input(&mut self, grad_out: Tensor, slot: Slot, input_grad: bool) -> Option<Tensor> {
        let caches = self
            .saved
            .remove(slot)
            .unwrap_or_else(|| panic!("{}: no saved state for slot {slot}", self.name));
        let t = caches.len();
        let (b, hn, d) = (caches[0].x.rows(), self.hidden, self.in_features);
        assert_eq!(grad_out.shape(), &[b, t, hn]);

        let mut dx = Tensor::zeros(&[b, t, d]);
        let mut dh_next = Tensor::zeros(&[b, hn]);
        let mut dc_next = Tensor::zeros(&[b, hn]);
        for step in (0..t).rev() {
            let cache = &caches[step];
            // dh = grad_out[:, step, :] + dh from the next timestep.
            let mut dh = dh_next.clone();
            for r in 0..b {
                for j in 0..hn {
                    *dh.at_mut(r, j) += grad_out.data()[(r * t + step) * hn + j];
                }
            }
            // Through h = o ⊙ tanh(c) and c = f ⊙ c_prev + i ⊙ g.
            let mut dpre = Tensor::zeros(&[b, 4 * hn]);
            let mut dc = dc_next.clone();
            let mut dc_prev = Tensor::zeros(&[b, hn]);
            for r in 0..b {
                for j in 0..hn {
                    let i = cache.gates.at(r, j);
                    let f = cache.gates.at(r, hn + j);
                    let g = cache.gates.at(r, 2 * hn + j);
                    let o = cache.gates.at(r, 3 * hn + j);
                    let tc = cache.c.at(r, j).tanh();
                    let dh_v = dh.at(r, j);
                    *dc.at_mut(r, j) += dh_v * o * (1.0 - tc * tc);
                    let dc_v = dc.at(r, j);
                    // Gate pre-activation gradients.
                    *dpre.at_mut(r, j) = dc_v * g * i * (1.0 - i); // di
                    *dpre.at_mut(r, hn + j) = dc_v * cache.c_prev.at(r, j) * f * (1.0 - f); // df
                    *dpre.at_mut(r, 2 * hn + j) = dc_v * i * (1.0 - g * g); // dg
                    *dpre.at_mut(r, 3 * hn + j) = dh_v * tc * o * (1.0 - o); // do
                    *dc_prev.at_mut(r, j) = dc_v * f;
                }
            }
            // Parameter gradients: dW_x += xᵀ·dpre ; dW_h += h_prevᵀ·dpre ;
            // db += column sums. Transposes fold into GEMM packing and the
            // accumulation happens inside the kernel.
            self.w_x.grad.add_matmul_tn(&cache.x, &dpre);
            self.w_h.grad.add_matmul_tn(&cache.h_prev, &dpre);
            {
                let db = self.bias.grad.data_mut();
                for r in 0..b {
                    for cidx in 0..4 * hn {
                        db[cidx] += dpre.at(r, cidx);
                    }
                }
            }
            // Input and recurrent gradients (transposes folded into GEMM).
            let dxs = dpre.matmul_nt(&self.w_x.value);
            for r in 0..b {
                let dst = (r * t + step) * d;
                dx.data_mut()[dst..dst + d].copy_from_slice(&dxs.data()[r * d..(r + 1) * d]);
            }
            dxs.recycle();
            dh.recycle();
            dh_next.recycle();
            dh_next = dpre.matmul_nt(&self.w_h.value);
            dpre.recycle();
            dc.recycle();
            dc_next.recycle();
            dc_next = dc_prev;
        }
        dh_next.recycle();
        dc_next.recycle();
        caches.into_iter().for_each(StepCache::recycle);
        grad_out.recycle();
        keep(dx, input_grad)
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
        // input_shape is per-sample [seq, in].
        let t = input_shape[0];
        2.0 * t as f64 * (4 * self.hidden * (self.in_features + self.hidden)) as f64
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
                (c.x.len() + c.h_prev.len() + c.c_prev.len() + c.gates.len() + c.c.len()) as u64 * 4
            })
            .sum()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Lstm {
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

/// Select the last timestep of a `[batch, seq, features]` sequence,
/// producing `[batch, features]` — the usual bridge from a recurrent trunk
/// to a classifier head.
#[derive(Clone)]
pub struct SeqLast {
    saved_shape: SlotMap<Vec<usize>>,
}

impl SeqLast {
    /// New selector.
    pub fn new() -> Self {
        SeqLast {
            saved_shape: SlotMap::new(),
        }
    }
}

impl Default for SeqLast {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for SeqLast {
    fn name(&self) -> &str {
        "seq_last"
    }

    fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 3, "seq_last wants [b, seq, f]");
        let (b, t, f) = (s[0], s[1], s[2]);
        let mut out = Tensor::zeros(&[b, f]);
        for r in 0..b {
            let src = (r * t + (t - 1)) * f;
            out.data_mut()[r * f..(r + 1) * f].copy_from_slice(&x.data()[src..src + f]);
        }
        self.saved_shape.insert(slot, s.to_vec());
        out
    }

    fn backward_input(&mut self, grad_out: Tensor, slot: Slot, input_grad: bool) -> Option<Tensor> {
        let s = self
            .saved_shape
            .remove(slot)
            .unwrap_or_else(|| panic!("seq_last: no saved shape for slot {slot}"));
        let (b, t, f) = (s[0], s[1], s[2]);
        let mut dx = Tensor::zeros(&s);
        for r in 0..b {
            let dst = (r * t + (t - 1)) * f;
            dx.data_mut()[dst..dst + f].copy_from_slice(&grad_out.data()[r * f..(r + 1) * f]);
        }
        grad_out.recycle();
        keep(dx, input_grad)
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], input_shape[2]]
    }

    fn clear_slots(&mut self) {
        self.saved_shape.clear();
    }

    fn clear_slot(&mut self, slot: Slot) {
        self.saved_shape.remove(slot);
    }

    fn cached_bytes(&self) -> u64 {
        self.saved_shape.values().map(|s| s.len() as u64 * 8).sum()
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
    fn output_shape_is_b_t_h() {
        let mut l = Lstm::new(3, 5, &mut rng(1));
        let y = l.forward(&Tensor::zeros(&[2, 4, 3]), 0);
        assert_eq!(y.shape(), &[2, 4, 5]);
    }

    #[test]
    fn zero_input_zero_bias_gives_zero_cell() {
        let mut l = Lstm::new(2, 3, &mut rng(2));
        l.bias.value = Tensor::zeros(&[12]);
        let y = l.forward(&Tensor::zeros(&[1, 3, 2]), 0);
        // g = tanh(0) = 0 ⇒ c stays 0 ⇒ h = o·tanh(0) = 0.
        assert!(y.data().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn gradcheck_short_sequence() {
        let mut l = Lstm::new(3, 4, &mut rng(3));
        check_layer_gradients(&mut l, &[2, 3, 3], 7);
    }

    #[test]
    fn gradcheck_single_step() {
        let mut l = Lstm::new(2, 2, &mut rng(4));
        check_layer_gradients(&mut l, &[3, 1, 2], 8);
    }

    #[test]
    fn gradcheck_nonsquare_crossing_tile_edges() {
        // in=9, hidden=5 puts the fused [b, 4·hidden] products off the
        // 8×8 micro-kernel grid in every dimension.
        let mut l = Lstm::new(9, 5, &mut rng(8));
        check_layer_gradients(&mut l, &[3, 2, 9], 9);
    }

    #[test]
    fn slots_are_independent() {
        let mut l = Lstm::new(2, 3, &mut rng(5));
        let a = Tensor::full(&[1, 2, 2], 0.5);
        let b = Tensor::full(&[1, 2, 2], -0.5);
        let ya = l.forward(&a, 0);
        let _yb = l.forward(&b, 1);
        // Backward slot 0 must consume slot 0's cache without interference.
        let g = Tensor::full(&[1, 2, 3], 1.0);
        let dxa = l.backward(&g, 0);
        assert_eq!(dxa.shape(), &[1, 2, 2]);
        // Slot 1 still consumable.
        let dxb = l.backward(&g, 1);
        assert_eq!(dxb.shape(), &[1, 2, 2]);
        assert_ne!(ya, l.forward(&b, 2));
    }

    #[test]
    fn param_count_matches_formula() {
        let l = Lstm::new(7, 11, &mut rng(6));
        assert_eq!(l.param_count(), 7 * 44 + 11 * 44 + 44);
    }

    #[test]
    fn seq_last_selects_final_step() {
        let mut s = SeqLast::new();
        let x = Tensor::from_vec(&[1, 3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let y = s.forward(&x, 0);
        assert_eq!(y.data(), &[5.0, 6.0]);
        let dx = s.backward(&Tensor::from_slice(&[7.0, 8.0]).reshape(&[1, 2]), 0);
        assert_eq!(dx.data(), &[0., 0., 0., 0., 7., 8.]);
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let l = Lstm::new(2, 4, &mut rng(7));
        let b = l.bias.value.data();
        assert!(b[4..8].iter().all(|&v| v == 1.0));
        assert!(b[0..4].iter().all(|&v| v == 0.0));
    }
}
