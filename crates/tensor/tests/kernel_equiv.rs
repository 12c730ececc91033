//! Differential kernel suite: every fast compute path is pinned to its
//! naive reference.
//!
//! The tiled GEMM (`crates/tensor/src/gemm.rs`) and the im2col
//! convolution must agree with the seed scalar kernels on random shapes
//! within 1e-5 relative tolerance. For plain products whose inner
//! dimension fits one cache block (k ≤ KC) the micro-kernel preserves
//! the reference's per-element summation *order* exactly, so on builds
//! without the `fma` target feature those cases are asserted
//! *bit-for-bit*; with FMA (the default under `target-cpu=native`) each
//! product+add rounds once instead of twice, a ≤ 1-ulp-per-step drift
//! covered by the same 1e-5 bound. A steady-state test at the bottom
//! locks in the buffer pool's no-allocation property for full training
//! steps.

use pipedream_tensor::gemm::{self, Backend};
use pipedream_tensor::init::{normal, rng};
use pipedream_tensor::layers::{conv2d_direct, conv2d_direct_backward, Conv2d, Linear, Tanh};
use pipedream_tensor::{pool, softmax_cross_entropy, Layer, Optimizer, Sequential, Sgd, Tensor};
use proptest::prelude::*;

/// 1e-5 relative tolerance with an absolute floor of 1e-5.
fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-5 * a.abs().max(b.abs()).max(1.0)
}

fn assert_close(fast: &Tensor, reference: &Tensor) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.shape(), reference.shape());
    for (i, (x, y)) in fast.data().iter().zip(reference.data().iter()).enumerate() {
        prop_assert!(close(*x, *y), "element {i}: fast {x} vs reference {y}");
    }
    Ok(())
}

fn dims(max: usize) -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (1..=max, 1..=max, 1..=max, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tiled GEMM == naive matmul; bit-identical on non-FMA builds while
    /// k fits a single KC block (these shapes are all far below
    /// KC = 256), within FMA rounding otherwise.
    #[test]
    fn gemm_matches_naive_matmul((m, k, n, s) in dims(48)) {
        let a = normal(&[m, k], 1.0, &mut rng(s));
        let b = normal(&[k, n], 1.0, &mut rng(s ^ 1));
        let fast = a.matmul(&b);
        let reference = a.matmul_naive(&b);
        if cfg!(target_feature = "fma") {
            assert_close(&fast, &reference)?;
        } else {
            prop_assert_eq!(fast.shape(), reference.shape());
            for (x, y) in fast.data().iter().zip(reference.data().iter()) {
                prop_assert!(x == y, "summation order diverged: {x} vs {y}");
            }
        }
    }

    /// A·Bᵀ with the transpose folded into packing == materialized form.
    #[test]
    fn gemm_nt_matches_materialized_transpose((m, k, n, s) in dims(40)) {
        let a = normal(&[m, k], 1.0, &mut rng(s));
        let bt = normal(&[n, k], 1.0, &mut rng(s ^ 2));
        assert_close(&a.matmul_nt(&bt), &a.matmul_naive(&bt.transpose()))?;
    }

    /// Aᵀ·B with the transpose folded into packing == materialized form.
    #[test]
    fn gemm_tn_matches_materialized_transpose((m, k, n, s) in dims(40)) {
        let at = normal(&[k, m], 1.0, &mut rng(s));
        let b = normal(&[k, n], 1.0, &mut rng(s ^ 3));
        assert_close(&at.matmul_tn(&b), &at.transpose().matmul_naive(&b))?;
    }

    /// Kernel-fused accumulation (`C += A·B`) == separate product + add.
    #[test]
    fn gemm_accumulate_matches_separate_add((m, k, n, s) in dims(32)) {
        let a = normal(&[m, k], 1.0, &mut rng(s));
        let b = normal(&[k, n], 1.0, &mut rng(s ^ 4));
        let c0 = normal(&[m, n], 1.0, &mut rng(s ^ 5));
        let mut fused = c0.clone();
        fused.add_matmul(&a, &b);
        assert_close(&fused, &c0.add(&a.matmul_naive(&b)))?;
        // And the tn accumulate used for weight gradients.
        let at = normal(&[k, m], 1.0, &mut rng(s ^ 6));
        let mut fused_tn = c0.clone();
        fused_tn.add_matmul_tn(&at, &b);
        assert_close(&fused_tn, &c0.add(&at.transpose().matmul_naive(&b)))?;
    }

    /// im2col + GEMM convolution forward == the direct 6-deep loop, over
    /// random geometry (channels, kernel, stride, padding, non-square).
    #[test]
    fn conv_forward_matches_direct(
        bch in 1usize..=2, c in 1usize..=3, oc in 1usize..=4,
        k in 1usize..=3, stride in 1usize..=2, padding in 0usize..=1,
        extra_h in 0usize..=5, extra_w in 0usize..=5, s in any::<u64>(),
    ) {
        let (h, w) = (k + extra_h, k + extra_w);
        let mut conv = Conv2d::new(c, oc, k, stride, padding, &mut rng(s));
        let x = normal(&[bch, c, h, w], 1.0, &mut rng(s ^ 7));
        gemm::set_thread_backend(Backend::Fast);
        let fast = conv.forward(&x, 0);
        let weight = conv.params()[0].value.clone();
        let bias = conv.params()[1].value.clone();
        let reference = conv2d_direct(&x, &weight, &bias, stride, padding);
        assert_close(&fast, &reference)?;
    }

    /// im2col + GEMM convolution backward == the direct loop's input,
    /// weight, and bias gradients.
    #[test]
    fn conv_backward_matches_direct(
        bch in 1usize..=2, c in 1usize..=3, oc in 1usize..=3,
        k in 1usize..=3, stride in 1usize..=2, padding in 0usize..=1,
        extra_h in 0usize..=4, extra_w in 0usize..=4, s in any::<u64>(),
    ) {
        let (h, w) = (k + extra_h, k + extra_w);
        let mut conv = Conv2d::new(c, oc, k, stride, padding, &mut rng(s));
        let x = normal(&[bch, c, h, w], 1.0, &mut rng(s ^ 8));
        gemm::set_thread_backend(Backend::Fast);
        let y = conv.forward(&x, 0);
        let g = normal(y.shape(), 1.0, &mut rng(s ^ 9));
        conv.zero_grad();
        let dx_fast = conv.backward(&g, 0);
        let weight = conv.params()[0].value.clone();
        let (dx_ref, dw_ref, db_ref) =
            conv2d_direct_backward(&x, &weight, &g, stride, padding);
        assert_close(&dx_fast, &dx_ref)?;
        assert_close(&conv.params()[0].grad, &dw_ref)?;
        assert_close(&conv.params()[1].grad, &db_ref)?;
    }

    /// The Naive backend reproduces the reference on every entry point the
    /// layers use, so a `set_thread_backend` flip is a true kernel swap.
    #[test]
    fn naive_backend_dispatch_equals_reference((m, k, n, s) in dims(24)) {
        let a = normal(&[m, k], 1.0, &mut rng(s));
        let b = normal(&[k, n], 1.0, &mut rng(s ^ 10));
        let prev = gemm::thread_backend();
        gemm::set_thread_backend(Backend::Naive);
        let via_dispatch = a.matmul(&b);
        gemm::set_thread_backend(prev);
        let reference = a.matmul_naive(&b);
        prop_assert_eq!(via_dispatch.data(), reference.data());
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `C (+)= op(A)·Bᵀ` runs as its transpose, `B`'s rows read in place;
/// every element is the same FMA chain as the product on a materialized
/// `Bᵀ`, so the two give the same bits. The shapes put `n` off the `MR`
/// grid, `m` off the `NR` grid (and past one `NC` block), `k` past one
/// `KC` block and at 1.
#[test]
fn transposed_b_is_bit_identical_to_materialized_transpose() {
    use gemm::{KC, MR, NC, NR};
    let shapes = [
        (NR + 3, 1, MR + 1),
        (2 * NR - 5, KC + 37, 2 * MR + 5),
        (5, 2 * KC + 3, 13),
        (NC + 7, 3, 3 * MR + 2),
    ];
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let s = i as u64;
        let a = normal(&[m * k], 1.0, &mut rng(s));
        let b = normal(&[n * k], 1.0, &mut rng(s ^ 11));
        let c0 = normal(&[m * n], 1.0, &mut rng(s ^ 12));
        let mut bt = vec![0.0; k * n];
        gemm::transpose_into(&mut bt, b.data(), n, k);
        for trans_a in [false, true] {
            for accumulate in [false, true] {
                let mut swapped = c0.data().to_vec();
                let mut packed = c0.data().to_vec();
                gemm::gemm_fast(
                    &mut swapped,
                    a.data(),
                    b.data(),
                    m,
                    k,
                    n,
                    trans_a,
                    true,
                    accumulate,
                );
                gemm::gemm_fast(
                    &mut packed,
                    a.data(),
                    &bt,
                    m,
                    k,
                    n,
                    trans_a,
                    false,
                    accumulate,
                );
                assert_eq!(
                    bits(&swapped),
                    bits(&packed),
                    "({m},{k},{n}) trans_a {trans_a} accumulate {accumulate}"
                );
            }
        }
    }
}

/// The im2col convolution's forward multiplies the weights by the
/// transposed column matrix, whose rows (the `OH·OW` output positions) are
/// read in place. With `OH·OW` off the `MR` grid it must still give the
/// bits of the same product on the materialized transpose.
#[test]
fn conv_forward_is_bit_identical_to_materialized_transpose() {
    // (c, out_ch, k, stride, padding, h, w): OH·OW = 25 and 15.
    for &(c, oc, k, stride, padding, h, w) in &[(2, 5, 3, 1, 1, 5, 5), (3, 4, 2, 2, 0, 7, 11)] {
        let mut conv = Conv2d::new(c, oc, k, stride, padding, &mut rng(21));
        let x = normal(&[2, c, h, w], 1.0, &mut rng(22));
        gemm::set_thread_backend(Backend::Fast);
        let fast = conv.forward(&x, 0);
        let (oh, ow) = (
            (h + 2 * padding - k) / stride + 1,
            (w + 2 * padding - k) / stride + 1,
        );
        assert_ne!((oh * ow) % gemm::MR, 0);
        let (ohow, ckk) = (oh * ow, c * k * k);
        let weight = conv.params()[0].value.data().to_vec();
        let bias = conv.params()[1].value.data().to_vec();
        let mut expected = Vec::new();
        for xb in x.data().chunks_exact(c * h * w) {
            // The lowering Conv2d uses: row = output position, column =
            // (channel, ky, kx); padding taps are 0.
            let mut cols = vec![0.0; ohow * ckk];
            for (pos, row) in cols.chunks_exact_mut(ckk).enumerate() {
                let (oy, ox) = (pos / ow, pos % ow);
                for (tap, v) in row.iter_mut().enumerate() {
                    let (ic, ky, kx) = (tap / (k * k), tap / k % k, tap % k);
                    let (iy, ix) = (oy * stride + ky, ox * stride + kx);
                    if (padding..h + padding).contains(&iy) && (padding..w + padding).contains(&ix)
                    {
                        *v = xb[(ic * h + iy - padding) * w + ix - padding];
                    }
                }
            }
            let mut cols_t = vec![0.0; ckk * ohow];
            gemm::transpose_into(&mut cols_t, &cols, ohow, ckk);
            let mut out = vec![0.0; oc * ohow];
            gemm::gemm_fast(
                &mut out, &weight, &cols_t, oc, ckk, ohow, false, false, false,
            );
            for (row, &bv) in out.chunks_exact_mut(ohow).zip(&bias) {
                row.iter_mut().for_each(|v| *v += bv);
            }
            expected.extend(out);
        }
        assert_eq!(
            bits(fast.data()),
            bits(&expected),
            "conv {c}->{oc} k{k} s{stride} p{padding}"
        );
    }
}

/// Once warm, 100 full training steps (forward, loss, backward, SGD
/// update) are served entirely from the buffer pool: zero pool misses,
/// i.e. no net allocations in the steady-state loop.
#[test]
fn training_steps_stop_allocating_once_pool_is_warm() {
    let mut r = rng(11);
    let mut model = Sequential::new("mlp")
        .push(Linear::new(8, 16, &mut r))
        .push(Tanh::new())
        .push(Linear::new(16, 4, &mut r));
    let mut opt = Sgd::with_momentum(0.05, 0.9, 1e-4);
    let x = normal(&[4, 8], 1.0, &mut rng(12));
    let labels = vec![0usize, 1, 2, 3];

    let step = |model: &mut Sequential, opt: &mut Sgd| {
        let y = model.forward(&x, 0);
        let out = softmax_cross_entropy(&y, &labels);
        y.recycle();
        let dx = model.backward(&out.grad, 0);
        dx.recycle();
        out.grad.recycle();
        opt.step(&mut model.params_mut());
    };

    // Warm-up: first steps populate the free lists (and Sgd's velocity).
    for _ in 0..10 {
        step(&mut model, &mut opt);
    }
    let warm = pool::thread_stats().misses;
    for _ in 0..100 {
        step(&mut model, &mut opt);
    }
    let after = pool::thread_stats().misses;
    assert_eq!(
        after,
        warm,
        "steady-state training allocated {} fresh buffers in 100 steps",
        after - warm
    );
}
