//! Pooling and reshaping layers.

use super::{keep, Layer, Slot, SlotMap};
use crate::tensor::Tensor;

/// Max pooling over `[batch, ch, h, w]` inputs with a square window and
/// matching stride (the common `k = stride` configuration used in VGG/AlexNet).
#[derive(Clone)]
pub struct MaxPool2d {
    window: usize,
    /// Per-slot: (input shape, argmax index of each output element).
    saved: SlotMap<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2d {
    /// Pool with a `window × window` kernel and stride `window`.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1);
        MaxPool2d {
            window,
            saved: SlotMap::new(),
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        "maxpool"
    }

    fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "maxpool wants [b,c,h,w]");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        let k = self.window;
        let (oh, ow) = (h / k, w / k);
        let xd = x.data();
        let mut out = Tensor::zeros(&[b, c, oh, ow]);
        let mut argmax = vec![0usize; b * c * oh * ow];
        let od = out.data_mut();
        for bi in 0..b {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for ky in 0..k {
                            for kx in 0..k {
                                let idx = ((bi * c + ci) * h + oy * k + ky) * w + ox * k + kx;
                                if xd[idx] > best {
                                    best = xd[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let oi = ((bi * c + ci) * oh + oy) * ow + ox;
                        od[oi] = best;
                        argmax[oi] = best_idx;
                    }
                }
            }
        }
        self.saved.insert(slot, (s.to_vec(), argmax));
        out
    }

    fn backward_input(&mut self, grad_out: Tensor, slot: Slot, input_grad: bool) -> Option<Tensor> {
        let (in_shape, argmax) = self
            .saved
            .remove(slot)
            .unwrap_or_else(|| panic!("maxpool: no saved state for slot {slot}"));
        let mut dx = Tensor::zeros(&in_shape);
        let dxd = dx.data_mut();
        for (g, &src) in grad_out.data().iter().zip(argmax.iter()) {
            dxd[src] += g;
        }
        grad_out.recycle();
        keep(dx, input_grad)
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![
            input_shape[0],
            input_shape[1],
            input_shape[2] / self.window,
            input_shape[3] / self.window,
        ]
    }

    fn flops_per_sample(&self, input_shape: &[usize]) -> f64 {
        input_shape.iter().product::<usize>() as f64
    }

    fn clear_slots(&mut self) {
        self.saved.clear();
    }

    fn clear_slot(&mut self, slot: Slot) {
        self.saved.remove(slot);
    }

    fn cached_bytes(&self) -> u64 {
        self.saved
            .values()
            .map(|(s, idx)| (s.len() + idx.len()) as u64 * 8)
            .sum()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Average pooling over `[batch, ch, h, w]` inputs with a square window
/// and matching stride.
#[derive(Clone)]
pub struct AvgPool2d {
    window: usize,
    saved_shape: SlotMap<Vec<usize>>,
}

impl AvgPool2d {
    /// Pool with a `window × window` kernel and stride `window`.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1);
        AvgPool2d {
            window,
            saved_shape: SlotMap::new(),
        }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &str {
        "avgpool"
    }

    fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "avgpool wants [b,c,h,w]");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        let k = self.window;
        let (oh, ow) = (h / k, w / k);
        let xd = x.data();
        let mut out = Tensor::zeros(&[b, c, oh, ow]);
        let od = out.data_mut();
        let inv = 1.0 / (k * k) as f32;
        for bi in 0..b {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..k {
                            for kx in 0..k {
                                acc += xd[((bi * c + ci) * h + oy * k + ky) * w + ox * k + kx];
                            }
                        }
                        od[((bi * c + ci) * oh + oy) * ow + ox] = acc * inv;
                    }
                }
            }
        }
        self.saved_shape.insert(slot, s.to_vec());
        out
    }

    fn backward_input(&mut self, grad_out: Tensor, slot: Slot, input_grad: bool) -> Option<Tensor> {
        let s = self
            .saved_shape
            .remove(slot)
            .unwrap_or_else(|| panic!("avgpool: no saved shape for slot {slot}"));
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        let k = self.window;
        let (oh, ow) = (h / k, w / k);
        let mut dx = Tensor::zeros(&s);
        let dxd = dx.data_mut();
        let inv = 1.0 / (k * k) as f32;
        for bi in 0..b {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad_out.data()[((bi * c + ci) * oh + oy) * ow + ox] * inv;
                        for ky in 0..k {
                            for kx in 0..k {
                                dxd[((bi * c + ci) * h + oy * k + ky) * w + ox * k + kx] += g;
                            }
                        }
                    }
                }
            }
        }
        grad_out.recycle();
        keep(dx, input_grad)
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![
            input_shape[0],
            input_shape[1],
            input_shape[2] / self.window,
            input_shape[3] / self.window,
        ]
    }

    fn flops_per_sample(&self, input_shape: &[usize]) -> f64 {
        input_shape.iter().product::<usize>() as f64
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

/// Reshape each sample to a fixed per-sample shape:
/// `[b, prod(shape)] → [b, shape…]` — e.g. lift flat pixel rows into
/// `[b, c, h, w]` images for a convolutional stage.
#[derive(Clone)]
pub struct Reshape {
    per_sample: Vec<usize>,
    saved_shape: SlotMap<Vec<usize>>,
}

impl Reshape {
    /// Reshape to `per_sample` (no batch dimension).
    pub fn new(per_sample: &[usize]) -> Self {
        assert!(!per_sample.is_empty());
        Reshape {
            per_sample: per_sample.to_vec(),
            saved_shape: SlotMap::new(),
        }
    }
}

impl Layer for Reshape {
    fn name(&self) -> &str {
        "reshape"
    }

    fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor {
        let want: usize = self.per_sample.iter().product();
        assert_eq!(
            x.cols(),
            want,
            "reshape: {} elems/sample cannot become {:?}",
            x.cols(),
            self.per_sample
        );
        self.saved_shape.insert(slot, x.shape().to_vec());
        let mut shape = vec![x.rows()];
        shape.extend_from_slice(&self.per_sample);
        x.reshape(&shape)
    }

    fn backward_input(&mut self, grad_out: Tensor, slot: Slot, input_grad: bool) -> Option<Tensor> {
        let shape = self
            .saved_shape
            .remove(slot)
            .unwrap_or_else(|| panic!("reshape: no saved shape for slot {slot}"));
        let dx = grad_out.reshape(&shape);
        grad_out.recycle();
        keep(dx, input_grad)
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let mut shape = vec![input_shape[0]];
        shape.extend_from_slice(&self.per_sample);
        shape
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

/// Flatten all non-batch dimensions: `[b, …] → [b, prod(…)]`.
#[derive(Clone)]
pub struct Flatten {
    saved_shape: SlotMap<Vec<usize>>,
}

impl Flatten {
    /// New flatten layer.
    pub fn new() -> Self {
        Flatten {
            saved_shape: SlotMap::new(),
        }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        "flatten"
    }

    fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor {
        self.saved_shape.insert(slot, x.shape().to_vec());
        x.reshape(&[x.rows(), x.cols()])
    }

    fn backward_input(&mut self, grad_out: Tensor, slot: Slot, input_grad: bool) -> Option<Tensor> {
        let shape = self
            .saved_shape
            .remove(slot)
            .unwrap_or_else(|| panic!("flatten: no saved shape for slot {slot}"));
        let dx = grad_out.reshape(&shape);
        grad_out.recycle();
        keep(dx, input_grad)
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape[0], input_shape[1..].iter().product()]
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

    #[test]
    fn maxpool_picks_window_max() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(&[1, 1, 2, 4], vec![1., 5., 2., 0., 3., 4., 8., 1.]);
        let y = p.forward(&x, 0);
        assert_eq!(y.shape(), &[1, 1, 1, 2]);
        assert_eq!(y.data(), &[5.0, 8.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 9., 2., 3.]);
        p.forward(&x, 0);
        let dx = p.backward(&Tensor::from_vec(&[1, 1, 1, 1], vec![7.0]), 0);
        assert_eq!(dx.data(), &[0., 7., 0., 0.]);
    }

    #[test]
    fn avgpool_averages_windows() {
        let mut p = AvgPool2d::new(2);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 3.0, 5.0, 7.0]);
        let y = p.forward(&x, 0);
        assert_eq!(y.data(), &[4.0]);
        let dx = p.backward(&Tensor::from_vec(&[1, 1, 1, 1], vec![8.0]), 0);
        assert_eq!(dx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn avgpool_gradcheck() {
        use crate::gradcheck::check_layer_gradients;
        check_layer_gradients(&mut AvgPool2d::new(2), &[2, 2, 4, 4], 13);
    }

    #[test]
    fn reshape_lifts_and_restores() {
        let mut r = Reshape::new(&[2, 3, 3]);
        let x = Tensor::zeros(&[4, 18]);
        let y = r.forward(&x, 0);
        assert_eq!(y.shape(), &[4, 2, 3, 3]);
        let dx = r.backward(&Tensor::zeros(&[4, 2, 3, 3]), 0);
        assert_eq!(dx.shape(), &[4, 18]);
    }

    #[test]
    #[should_panic(expected = "cannot become")]
    fn reshape_rejects_wrong_size() {
        let mut r = Reshape::new(&[2, 2]);
        r.forward(&Tensor::zeros(&[1, 5]), 0);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[3, 2, 4]);
        let y = f.forward(&x, 5);
        assert_eq!(y.shape(), &[3, 8]);
        let dx = f.backward(&Tensor::zeros(&[3, 8]), 5);
        assert_eq!(dx.shape(), &[3, 2, 4]);
    }
}
