//! 2-D convolution: im2col + GEMM, with the direct algorithm retained as
//! the differential-testing reference.
//!
//! The fast path lowers each batch element to a column matrix
//! `[oh·ow, in_ch·k·k]` (column order `(ic, ky, kx)`, matching the weight
//! layout) and runs the three convolution products through [`crate::gemm`]:
//!
//! * forward: `out_b = W × colsᵀ` (transpose folded into packing), bias
//!   added after the product;
//! * backward: `dW += g_b × cols`, `db` from row sums,
//!   `dcols = g_bᵀ × W` followed by a col2im scatter-add into `dx`.
//!
//! [`conv2d_direct`] / [`conv2d_direct_backward`] are the seed 6-deep
//! loops, kept verbatim so `tests/kernel_equiv.rs` can pin the GEMM
//! formulation against them. Note the direct forward seeds its
//! accumulator with the bias (so bias participates at a different point
//! in the summation order); the two paths therefore agree to relative
//! tolerance, not bit-for-bit.

use super::{keep, Layer, Param, Slot, SlotMap};
use crate::gemm::{self, Backend};
use crate::tensor::Tensor;
use crate::{init, pool};
use rand::rngs::StdRng;

/// Direct (6-deep loop) convolution forward — the reference kernel.
///
/// `x: [b, c, h, w]`, `weight: [out_ch, c, k, k]`, `bias: [out_ch]`.
pub fn conv2d_direct(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    padding: usize,
) -> Tensor {
    let (b, c, h, w) = dims4(x);
    let (out_ch, k) = (weight.shape()[0], weight.shape()[2]);
    let (oh, ow) = out_hw(h, w, k, stride, padding);
    let mut out = Tensor::zeros(&[b, out_ch, oh, ow]);
    let wd = weight.data();
    let bd = bias.data();
    let xd = x.data();
    let od = out.data_mut();
    for bi in 0..b {
        for oc in 0..out_ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bd[oc];
                    for ic in 0..c {
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((bi * c + ic) * h + iy as usize) * w + ix as usize;
                                let wi = ((oc * c + ic) * k + ky) * k + kx;
                                acc += xd[xi] * wd[wi];
                            }
                        }
                    }
                    od[((bi * out_ch + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    out
}

/// Direct convolution backward — returns `(dx, dw, db)`.
pub fn conv2d_direct_backward(
    x: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    padding: usize,
) -> (Tensor, Tensor, Tensor) {
    let (b, c, h, w) = dims4(x);
    let (out_ch, k) = (weight.shape()[0], weight.shape()[2]);
    let (oh, ow) = out_hw(h, w, k, stride, padding);
    assert_eq!(grad_out.shape(), &[b, out_ch, oh, ow]);
    let mut dx = Tensor::zeros(&[b, c, h, w]);
    let mut dw = Tensor::zeros(weight.shape());
    let mut db = Tensor::zeros(&[out_ch]);
    let xd = x.data();
    let gd = grad_out.data();
    let wd = weight.data();
    let dwd = dw.data_mut();
    let dbd = db.data_mut();
    let dxd = dx.data_mut();
    for bi in 0..b {
        for oc in 0..out_ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = gd[((bi * out_ch + oc) * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    dbd[oc] += g;
                    for ic in 0..c {
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((bi * c + ic) * h + iy as usize) * w + ix as usize;
                                let wi = ((oc * c + ic) * k + ky) * k + kx;
                                dwd[wi] += g * xd[xi];
                                dxd[xi] += g * wd[wi];
                            }
                        }
                    }
                }
            }
        }
    }
    (dx, dw, db)
}

fn dims4(x: &Tensor) -> (usize, usize, usize, usize) {
    let s = x.shape();
    assert_eq!(s.len(), 4, "conv wants [b,c,h,w], got {s:?}");
    (s[0], s[1], s[2], s[3])
}

fn out_hw(h: usize, w: usize, k: usize, stride: usize, padding: usize) -> (usize, usize) {
    (
        (h + 2 * padding - k) / stride + 1,
        (w + 2 * padding - k) / stride + 1,
    )
}

/// Lower one batch element into `cols: [oh*ow, c*k*k]` (row = output
/// position, column = `(ic, ky, kx)` to match the weight layout).
/// Out-of-bounds (padding) taps are left at zero, so `cols` must arrive
/// zero-filled.
#[allow(clippy::too_many_arguments)]
fn im2col_rows(
    cols: &mut [f32],
    xb: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
) {
    let ckk = c * k * k;
    for oy in 0..oh {
        for ox in 0..ow {
            let row = &mut cols[(oy * ow + ox) * ckk..(oy * ow + ox + 1) * ckk];
            for ic in 0..c {
                for ky in 0..k {
                    let iy = (oy * stride + ky) as isize - padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src_row = (ic * h + iy as usize) * w;
                    for kx in 0..k {
                        let ix = (ox * stride + kx) as isize - padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        row[(ic * k + ky) * k + kx] = xb[src_row + ix as usize];
                    }
                }
            }
        }
    }
}

/// Scatter-add `dcols: [oh*ow, c*k*k]` back into one batch element of the
/// input gradient — the adjoint of [`im2col_rows`].
#[allow(clippy::too_many_arguments)]
fn col2im_rows(
    dxb: &mut [f32],
    dcols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
) {
    let ckk = c * k * k;
    for oy in 0..oh {
        for ox in 0..ow {
            let row = &dcols[(oy * ow + ox) * ckk..(oy * ow + ox + 1) * ckk];
            for ic in 0..c {
                for ky in 0..k {
                    let iy = (oy * stride + ky) as isize - padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst_row = (ic * h + iy as usize) * w;
                    for kx in 0..k {
                        let ix = (ox * stride + kx) as isize - padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dxb[dst_row + ix as usize] += row[(ic * k + ky) * k + kx];
                    }
                }
            }
        }
    }
}

/// 2-D convolution over `[batch, in_ch, h, w]` inputs with square kernels,
/// stride and zero padding. Weight layout `[out_ch, in_ch, k, k]`.
#[derive(Clone)]
pub struct Conv2d {
    name: String,
    weight: Param,
    bias: Param,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    saved_input: SlotMap<Tensor>,
}

impl Conv2d {
    /// Kaiming-initialized convolution.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut StdRng,
    ) -> Self {
        let fan_in = in_ch * kernel * kernel;
        let limit = (6.0 / fan_in as f32).sqrt();
        let weight = init::uniform(&[out_ch, in_ch, kernel, kernel], limit, rng);
        Conv2d {
            name: format!("conv{in_ch}x{out_ch}k{kernel}"),
            weight: Param::new("weight", weight),
            bias: Param::new("bias", Tensor::zeros(&[out_ch])),
            in_ch,
            out_ch,
            kernel,
            stride,
            padding,
            saved_input: SlotMap::new(),
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        out_hw(h, w, self.kernel, self.stride, self.padding)
    }

    fn forward_gemm(&self, x: &Tensor) -> Tensor {
        let (b, c, h, w) = dims4(x);
        let (oh, ow) = self.out_hw(h, w);
        let (k, ohow, ckk) = (self.kernel, oh * ow, c * self.kernel * self.kernel);
        let mut out = Tensor::zeros(&[b, self.out_ch, oh, ow]);
        let wd = self.weight.value.data();
        let bd = self.bias.value.data();
        let xd = x.data();
        let od = out.data_mut();
        let mut cols = pool::take_zeroed(ohow * ckk);
        for bi in 0..b {
            cols.fill(0.0);
            im2col_rows(
                &mut cols,
                &xd[bi * c * h * w..(bi + 1) * c * h * w],
                c,
                h,
                w,
                k,
                self.stride,
                self.padding,
                oh,
                ow,
            );
            let ob = &mut od[bi * self.out_ch * ohow..(bi + 1) * self.out_ch * ohow];
            // out_b [out_ch, ohow] = W [out_ch, ckk] × colsᵀ [ckk, ohow].
            gemm::gemm(ob, wd, &cols, self.out_ch, ckk, ohow, false, true, false);
            for oc in 0..self.out_ch {
                let bias = bd[oc];
                for v in &mut ob[oc * ohow..(oc + 1) * ohow] {
                    *v += bias;
                }
            }
        }
        pool::give(cols);
        out
    }

    fn backward_gemm(&mut self, x: &Tensor, grad_out: &Tensor) -> Tensor {
        let (b, c, h, w) = dims4(x);
        let (oh, ow) = self.out_hw(h, w);
        let (k, ohow, ckk) = (self.kernel, oh * ow, c * self.kernel * self.kernel);
        assert_eq!(grad_out.shape(), &[b, self.out_ch, oh, ow]);
        let mut dx = Tensor::zeros(&[b, c, h, w]);
        let xd = x.data();
        let gd = grad_out.data();
        let wd = self.weight.value.data();
        let dwd = self.weight.grad.data_mut();
        let dbd = self.bias.grad.data_mut();
        let dxd = dx.data_mut();
        let mut cols = pool::take_zeroed(ohow * ckk);
        let mut dcols = pool::take_zeroed(ohow * ckk);
        for bi in 0..b {
            // Re-lower the saved input (cheaper than stashing cols per slot).
            cols.fill(0.0);
            im2col_rows(
                &mut cols,
                &xd[bi * c * h * w..(bi + 1) * c * h * w],
                c,
                h,
                w,
                k,
                self.stride,
                self.padding,
                oh,
                ow,
            );
            let gb = &gd[bi * self.out_ch * ohow..(bi + 1) * self.out_ch * ohow];
            for oc in 0..self.out_ch {
                dbd[oc] += gb[oc * ohow..(oc + 1) * ohow].iter().sum::<f32>();
            }
            // dW [out_ch, ckk] += g_b [out_ch, ohow] × cols [ohow, ckk].
            gemm::gemm(dwd, gb, &cols, self.out_ch, ohow, ckk, false, false, true);
            // dcols [ohow, ckk] = g_bᵀ [ohow, out_ch] × W [out_ch, ckk].
            gemm::gemm(
                &mut dcols,
                gb,
                wd,
                ohow,
                self.out_ch,
                ckk,
                true,
                false,
                false,
            );
            col2im_rows(
                &mut dxd[bi * c * h * w..(bi + 1) * c * h * w],
                &dcols,
                c,
                h,
                w,
                k,
                self.stride,
                self.padding,
                oh,
                ow,
            );
        }
        pool::give(cols);
        pool::give(dcols);
        dx
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor, slot: Slot) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "{}: want [b,c,h,w], got {s:?}", self.name);
        assert_eq!(s[1], self.in_ch, "{}: channel mismatch", self.name);
        let out = match gemm::thread_backend() {
            Backend::Fast => self.forward_gemm(x),
            Backend::Naive => conv2d_direct(
                x,
                &self.weight.value,
                &self.bias.value,
                self.stride,
                self.padding,
            ),
        };
        self.saved_input.insert(slot, x.clone());
        out
    }

    /// One pass per image stores its weight gradients beside its input
    /// gradient, from one lowering of its input, so the weight half is
    /// [`Layer::backward_weight`]'s no-op.
    fn backward_input(&mut self, grad_out: Tensor, slot: Slot, input_grad: bool) -> Option<Tensor> {
        let x = self
            .saved_input
            .remove(slot)
            .unwrap_or_else(|| panic!("{}: no saved input for slot {slot}", self.name));
        let dx = match gemm::thread_backend() {
            Backend::Fast => self.backward_gemm(&x, &grad_out),
            Backend::Naive => {
                let (dx, dw, db) = conv2d_direct_backward(
                    &x,
                    &self.weight.value,
                    &grad_out,
                    self.stride,
                    self.padding,
                );
                self.weight.grad.axpy(1.0, &dw);
                self.bias.grad.axpy(1.0, &db);
                dw.recycle();
                db.recycle();
                dx
            }
        };
        x.recycle();
        grad_out.recycle();
        keep(dx, input_grad)
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
        let (oh, ow) = self.out_hw(input_shape[2], input_shape[3]);
        vec![input_shape[0], self.out_ch, oh, ow]
    }

    fn flops_per_sample(&self, input_shape: &[usize]) -> f64 {
        // input_shape is per-sample [c, h, w].
        let (oh, ow) = self.out_hw(input_shape[1], input_shape[2]);
        2.0 * (self.kernel * self.kernel * self.in_ch) as f64 * (self.out_ch * oh * ow) as f64
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
    fn identity_kernel_passes_through() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng(0));
        // Force weight to 1 and bias to 0: output == input.
        conv.weight.value = Tensor::full(&[1, 1, 1, 1], 1.0);
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let y = conv.forward(&x, 0);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn output_shape_with_padding_and_stride() {
        let conv = Conv2d::new(3, 8, 3, 2, 1, &mut rng(1));
        assert_eq!(conv.output_shape(&[2, 3, 8, 8]), vec![2, 8, 4, 4]);
    }

    #[test]
    fn known_3x3_convolution() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng(2));
        conv.weight.value = Tensor::full(&[1, 1, 3, 3], 1.0);
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let y = conv.forward(&x, 0);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 45.0);
    }

    #[test]
    fn gradcheck_small_conv() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng(3));
        check_layer_gradients(&mut conv, &[2, 2, 4, 4], 17);
    }

    #[test]
    fn gradcheck_strided_conv() {
        let mut conv = Conv2d::new(1, 2, 2, 2, 0, &mut rng(4));
        check_layer_gradients(&mut conv, &[1, 1, 4, 4], 19);
    }

    #[test]
    fn gradcheck_nonsquare_input_with_stride_and_padding() {
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, &mut rng(6));
        check_layer_gradients(&mut conv, &[2, 2, 5, 7], 23);
    }

    #[test]
    fn gradcheck_direct_path_matches_gemm_path() {
        // Same layer gradchecked under both backends.
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng(7));
        let prev = gemm::thread_backend();
        gemm::set_thread_backend(Backend::Naive);
        check_layer_gradients(&mut conv, &[2, 2, 4, 4], 29);
        gemm::set_thread_backend(Backend::Fast);
        check_layer_gradients(&mut conv, &[2, 2, 4, 4], 29);
        gemm::set_thread_backend(prev);
    }

    #[test]
    fn gemm_forward_matches_direct() {
        let mut conv = Conv2d::new(3, 4, 3, 2, 1, &mut rng(8));
        let x = init::normal(&[2, 3, 7, 6], 1.0, &mut rng(9));
        let fast = conv.forward_gemm(&x);
        let direct = conv2d_direct(
            &x,
            &conv.weight.value,
            &conv.bias.value,
            conv.stride,
            conv.padding,
        );
        assert_eq!(fast.shape(), direct.shape());
        for (a, b) in fast.data().iter().zip(direct.data().iter()) {
            assert!((a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1.0));
        }
        // And the Layer::forward dispatch agrees with the explicit call.
        assert_eq!(conv.forward(&x, 0).data(), fast.data());
    }

    #[test]
    fn flops_scale_with_output_area() {
        let conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng(5));
        let f1 = conv.flops_per_sample(&[3, 8, 8]);
        let f2 = conv.flops_per_sample(&[3, 16, 16]);
        assert!((f2 / f1 - 4.0).abs() < 1e-9);
    }
}
