//! Dense row-major `f32` tensors.

use crate::gemm;
use crate::pool;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// Shapes are dynamic, of rank at most [`MAX_RANK`], and held inline, so
/// making a tensor allocates its data and nothing else; rank-2 tensors are
/// interpreted as `[rows, cols]` matrices by the linear-algebra helpers.
/// The first dimension is the batch dimension throughout the layer
/// library.
///
/// Allocation goes through the thread-local [`crate::pool`]: fresh
/// tensors (including clones and op outputs) reuse recycled buffers, and
/// [`Tensor::recycle`] hands a tensor's storage back when a hot path
/// knows it is done with it. Matrix products dispatch through
/// [`crate::gemm`] (tiled kernel by default, the seed scalar kernel via
/// [`gemm::set_thread_backend`]).
#[derive(PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

/// Highest rank a [`Tensor`] can have: `Conv2d`'s `[batch, channels,
/// height, width]` is the highest any layer builds.
pub const MAX_RANK: usize = 4;

/// A tensor's dimensions, inline. Dimensions past the rank stay 0, so the
/// derived equality compares shapes. Serialized as the JSON array of its
/// dimensions, as a `Vec<usize>` is.
#[derive(Clone, Copy, PartialEq)]
struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "shape {dims:?} has rank {} > {MAX_RANK}",
            dims.len()
        );
        let mut shape = Shape {
            dims: [0; MAX_RANK],
            rank: dims.len() as u8,
        };
        shape.dims[..dims.len()].copy_from_slice(dims);
        shape
    }
}

impl std::ops::Deref for Shape {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl Serialize for Shape {
    fn to_value(&self) -> serde::Value {
        self[..].to_value()
    }
}

impl Deserialize for Shape {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let dims = Vec::<usize>::from_value(v)?;
        if dims.len() > MAX_RANK {
            return Err(serde::Error::msg("tensor rank above MAX_RANK"));
        }
        Ok(Shape::new(&dims))
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            shape: self.shape,
            data: pool::take_copy(&self.data),
        }
    }
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape: Shape::new(shape),
            data: pool::take_zeroed(n),
        }
    }

    /// A tensor whose contents are unspecified, for a caller that writes
    /// every element before it reads any: a recycled buffer is handed
    /// over as it is, without a fill.
    pub fn scratch(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape: Shape::new(shape),
            data: pool::take_any(n),
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = shape.iter().product();
        let mut data = pool::take_empty(n);
        data.resize(n, value);
        Tensor {
            shape: Shape::new(shape),
            data,
        }
    }

    /// Build a tensor from raw data; panics if `data.len()` does not match
    /// the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            data.len(),
            "shape {shape:?} wants {n} elements, got {}",
            data.len()
        );
        Tensor {
            shape: Shape::new(shape),
            data,
        }
    }

    /// A rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::new(&[data.len()]),
            data: pool::take_copy(data),
        }
    }

    /// Return this tensor's storage to the thread-local buffer pool.
    ///
    /// Purely an optimization — dropping a tensor is always correct —
    /// but hot paths (pipeline workers consuming messages, `Sequential`
    /// discarding intermediate activations) recycle so steady-state
    /// training stops allocating per minibatch.
    pub fn recycle(self) {
        pool::give(self.data);
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Number of rows when interpreted as a matrix (`shape[0]`, or 1 for
    /// rank-0).
    pub fn rows(&self) -> usize {
        self.shape.first().copied().unwrap_or(1)
    }

    /// Number of columns when interpreted as a matrix (product of all
    /// non-batch dimensions).
    pub fn cols(&self) -> usize {
        if self.shape.len() <= 1 {
            if self.shape.is_empty() {
                1
            } else {
                self.shape[0]
            }
        } else {
            self.shape[1..].iter().product()
        }
    }

    /// Reinterpret with a new shape of equal element count.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape {shape:?} wants {n} elements");
        Tensor {
            shape: Shape::new(shape),
            data: pool::take_copy(&self.data),
        }
    }

    /// Matrix element accessor for rank-2 tensors.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable matrix element accessor for rank-2 tensors.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        &mut self.data[r * self.shape[1] + c]
    }

    fn matmul_dims(&self, rhs: &Tensor) -> (usize, usize, usize) {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be rank-2");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be rank-2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        (m, k, n)
    }

    /// Matrix product `self × rhs` for rank-2 tensors
    /// (`[m,k] × [k,n] → [m,n]`), via the thread's selected GEMM kernel.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let (m, k, n) = self.matmul_dims(rhs);
        let mut out = pool::take_any(m * n);
        gemm::gemm(
            &mut out, &self.data, &rhs.data, m, k, n, false, false, false,
        );
        Tensor::from_vec(&[m, n], out)
    }

    /// `self × rhs` written into `out` (shape-checked), reusing `out`'s
    /// storage — the allocation-free variant for steady-state loops.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        let (m, k, n) = self.matmul_dims(rhs);
        assert_eq!(out.shape(), &[m, n], "matmul_into output shape");
        gemm::gemm(
            &mut out.data,
            &self.data,
            &rhs.data,
            m,
            k,
            n,
            false,
            false,
            false,
        );
    }

    /// `self × rhsᵀ` for `self: [m,k]`, `rhs: [n,k]` — the transposition
    /// happens inside the kernel's packing, so nothing is materialized.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be rank-2");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be rank-2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul_nt inner dims {k} vs {k2}");
        let mut out = pool::take_any(m * n);
        gemm::gemm(&mut out, &self.data, &rhs.data, m, k, n, false, true, false);
        Tensor::from_vec(&[m, n], out)
    }

    /// `selfᵀ × rhs` for `self: [k,m]`, `rhs: [k,n]`.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be rank-2");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be rank-2");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul_tn inner dims {k} vs {k2}");
        let mut out = pool::take_any(m * n);
        gemm::gemm(&mut out, &self.data, &rhs.data, m, k, n, true, false, false);
        Tensor::from_vec(&[m, n], out)
    }

    /// `self += aᵀ × b` for `a: [k,m]`, `b: [k,n]`, `self: [m,n]` — the
    /// gradient-accumulation product (`dW += xᵀ·g`) fused into one pass.
    pub fn add_matmul_tn(&mut self, a: &Tensor, b: &Tensor) {
        let (k, m) = (a.shape[0], a.shape[1]);
        let (k2, n) = (b.shape[0], b.shape[1]);
        assert_eq!(k, k2, "add_matmul_tn inner dims {k} vs {k2}");
        assert_eq!(self.shape(), &[m, n], "add_matmul_tn output shape");
        gemm::gemm(&mut self.data, &a.data, &b.data, m, k, n, true, false, true);
    }

    /// `self += a × bᵀ` for `a: [m,k]`, `b: [n,k]`, `self: [m,n]`.
    pub fn add_matmul_nt(&mut self, a: &Tensor, b: &Tensor) {
        let (m, k) = (a.shape[0], a.shape[1]);
        let (n, k2) = (b.shape[0], b.shape[1]);
        assert_eq!(k, k2, "add_matmul_nt inner dims {k} vs {k2}");
        assert_eq!(self.shape(), &[m, n], "add_matmul_nt output shape");
        gemm::gemm(&mut self.data, &a.data, &b.data, m, k, n, false, true, true);
    }

    /// `self += a × b` (both untransposed).
    pub fn add_matmul(&mut self, a: &Tensor, b: &Tensor) {
        let (m, k, n) = a.matmul_dims(b);
        assert_eq!(self.shape(), &[m, n], "add_matmul output shape");
        gemm::gemm(
            &mut self.data,
            &a.data,
            &b.data,
            m,
            k,
            n,
            false,
            false,
            true,
        );
    }

    /// Matrix product through the seed scalar kernel, regardless of the
    /// thread backend — the reference side of the differential suite.
    pub fn matmul_naive(&self, rhs: &Tensor) -> Tensor {
        let (m, k, n) = self.matmul_dims(rhs);
        let mut out = pool::take_any(m * n);
        gemm::gemm_reference(
            &mut out, &self.data, &rhs.data, m, k, n, false, false, false,
        );
        Tensor::from_vec(&[m, n], out)
    }

    /// Transpose a rank-2 tensor (cache-blocked).
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose needs rank-2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = pool::take_any(m * n);
        gemm::transpose_into(&mut out, &self.data, m, n);
        Tensor::from_vec(&[n, m], out)
    }

    /// Transpose into an existing `[n, m]` tensor, reusing its storage.
    pub fn transpose_into(&self, out: &mut Tensor) {
        assert_eq!(self.shape.len(), 2, "transpose needs rank-2");
        let (m, n) = (self.shape[0], self.shape[1]);
        assert_eq!(out.shape(), &[n, m], "transpose_into output shape");
        gemm::transpose_into(&mut out.data, &self.data, m, n);
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = pool::take_empty(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Tensor {
            shape: self.shape,
            data,
        }
    }

    /// Elementwise map in place — no allocation.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data.iter_mut() {
            *x = f(*x);
        }
    }

    /// Elementwise binary op with a shape-identical tensor.
    pub fn zip(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "zip shape mismatch");
        let mut data = pool::take_empty(self.data.len());
        data.extend(
            self.data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b)),
        );
        Tensor {
            shape: self.shape,
            data,
        }
    }

    /// Elementwise `self = f(self, rhs)` in place — no allocation.
    pub fn zip_inplace(&mut self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape, rhs.shape, "zip shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a = f(*a, b);
        }
    }

    /// Elementwise sum.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a - b)
    }

    /// Elementwise product (Hadamard).
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.zip(rhs, |a, b| a * b)
    }

    /// Scale every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// In-place scaling by `s`.
    pub fn scale_inplace(&mut self, s: f32) {
        for x in self.data.iter_mut() {
            *x *= s;
        }
    }

    /// Overwrite every element with `v` (in place; `fill(0.0)` is the
    /// allocation-free `zero_grad`).
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Overwrite this tensor's contents from a shape-identical source —
    /// the allocation-free alternative to `*self = src.clone()`.
    pub fn copy_from(&mut self, src: &Tensor) {
        assert_eq!(self.shape, src.shape, "copy_from shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// In-place `self += alpha * rhs` (axpy), shape-checked.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Per-row argmax for rank-2 tensors (used for classification accuracy).
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.len(), 2);
        let n = self.shape[1];
        (0..self.shape[0])
            .map(|r| {
                let row = &self.data[r * n..(r + 1) * n];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Extract row `r` of a rank-2 tensor as a rank-1 tensor.
    pub fn row(&self, r: usize) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        let n = self.shape[1];
        Tensor {
            shape: Shape::new(&[n]),
            data: pool::take_copy(&self.data[r * n..(r + 1) * n]),
        }
    }

    /// Stack rank-1 rows into a rank-2 tensor; panics on ragged input.
    pub fn stack_rows(rows: &[Tensor]) -> Tensor {
        assert!(!rows.is_empty(), "cannot stack zero rows");
        let n = rows[0].len();
        let mut data = pool::take_empty(rows.len() * n);
        for r in rows {
            assert_eq!(r.len(), n, "ragged rows in stack_rows");
            data.extend_from_slice(r.data());
        }
        Tensor::from_vec(&[rows.len(), n], data)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{:.4}, {:.4}, …]", self.data[0], self.data[1])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
        assert_eq!(a.matmul_naive(&b).data(), c.data());
    }

    #[test]
    fn matmul_into_reuses_storage() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let mut out = Tensor::full(&[2, 2], 99.0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transposed_products_match_materialized_transpose() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        // a·b == a·(bᵀ)ᵀ via matmul_nt.
        assert_eq!(a.matmul_nt(&b.transpose()).data(), a.matmul(&b).data());
        // matmul_tn on the stored transpose recovers a·b.
        let at = a.transpose();
        assert_eq!(at.matmul_tn(&b).data(), a.matmul(&b).data());
    }

    #[test]
    fn add_matmul_accumulates() {
        let x = Tensor::from_vec(&[2, 2], vec![1., 0., 0., 1.]);
        let g = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let mut dw = Tensor::full(&[2, 2], 1.0);
        dw.add_matmul_tn(&x, &g); // xᵀ·g = g since x = I
        assert_eq!(dw.data(), &[2., 3., 4., 5.]);
        let mut c = Tensor::zeros(&[2, 2]);
        c.add_matmul(&x, &g);
        assert_eq!(c.data(), g.data());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().at(2, 1), 6.0);
        let mut out = Tensor::zeros(&[3, 2]);
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());
    }

    #[test]
    fn inplace_ops_match_allocating_ops() {
        let a = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let b = Tensor::from_slice(&[0.5, 0.5, 0.5]);
        let mut m = a.clone();
        m.map_inplace(|x| x * 2.0);
        assert_eq!(m, a.map(|x| x * 2.0));
        let mut z = a.clone();
        z.zip_inplace(&b, |x, y| x + y);
        assert_eq!(z, a.add(&b));
        let mut s = a.clone();
        s.scale_inplace(3.0);
        assert_eq!(s, a.scale(3.0));
        let mut f = a.clone();
        f.fill(0.0);
        assert_eq!(f, Tensor::zeros(&[3]));
        let mut c = Tensor::zeros(&[3]);
        c.copy_from(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        a.axpy(0.5, &Tensor::from_slice(&[4.0, 8.0]));
        assert_eq!(a.data(), &[3.0, 6.0]);
    }

    #[test]
    fn argmax_rows_picks_max() {
        let t = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.0, 0.3, 0.2, 0.5]);
        assert_eq!(t.argmax_rows(), vec![1, 2]);
    }

    #[test]
    fn stack_rows_round_trip() {
        let rows = vec![Tensor::from_slice(&[1., 2.]), Tensor::from_slice(&[3., 4.])];
        let m = Tensor::stack_rows(&rows);
        assert_eq!(m.shape(), &[2, 2]);
        assert_eq!(m.row(1).data(), &[3., 4.]);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_rejects_wrong_len() {
        Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn cols_flattens_trailing_dims() {
        let t = Tensor::zeros(&[4, 3, 2, 2]);
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 12);
    }

    #[test]
    fn recycled_storage_is_reused() {
        crate::pool::clear_thread_pool();
        let a = Tensor::zeros(&[64, 64]);
        let misses_before = crate::pool::thread_stats().misses;
        a.recycle();
        let _b = Tensor::zeros(&[64, 64]);
        let stats = crate::pool::thread_stats();
        assert_eq!(stats.misses, misses_before, "second allocation must hit");
    }
}
