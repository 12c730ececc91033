//! Register-blocked, tiled single-precision GEMM.
//!
//! The seed implementation of `Tensor::matmul` was a scalar `ikj` loop
//! with a branchy zero-skip — fine for toy shapes, but PipeDream's whole
//! premise (§3.1) is that per-layer *compute* dominates, so the compute
//! kernel is the lever that makes every pipeline measurement meaningful.
//! This module is the classic three-level blocking scheme (Goto-style,
//! the structure BLIS and OpenBLAS use):
//!
//! * the innermost **micro-kernel** computes an `MR × NR` tile of `C`
//!   with the whole accumulator held in registers — the `k` loop streams
//!   packed operand panels with no bounds checks or branches, so LLVM
//!   autovectorizes it (no `unsafe`, no intrinsics, per this crate's
//!   charter);
//! * operands are **packed** into contiguous panels (`A` in `MR`-row
//!   panels, `B` in `NR`-column panels) so the micro-kernel's loads are
//!   unit-stride regardless of the caller's layout; a transposed `A`
//!   (`trans_a`) only changes packing indices;
//! * a transposed `B` (`trans_b`: `Linear`'s `dx = g·Wᵀ`, the recurrent
//!   layers' input gradients, `Conv2d`'s forward over its im2col matrix)
//!   is not packed at all: the product runs as its transpose
//!   `Cᵀ = B·op(A)ᵀ`, `B`'s rows feed the micro-kernel's broadcasts where
//!   they lie, and only `op(A)ᵀ` is packed — for `dx`, the gradient, whose
//!   size scales with the batch, rather than the weight matrix, whose
//!   transposed pack wrote one float at a time. The tile is stored
//!   transposed. No layer materializes a `transpose()`;
//! * outer loops block over `KC`/`MC`/`NC` so panels stay cache-resident.
//!   The pack buffers are thread-local scratch outside the buffer pool:
//!   they only grow and are never zero-filled, since packing writes every
//!   float a kernel reads, edge padding included;
//! * a product with **few rows** runs unpacked: `op(A)` of at most
//!   [`SMALL_M`] rows (at most [`SMALL_LANES`] with `trans_b`) and
//!   `k ≤ SMALL_K`, one `KC` block. Packing both operands and running
//!   `MR`-row panels over 8 rows cost a batch-8 `8×32×32` product about
//!   2.7× its unpacked time. The unpacked tile is `SR × NR`: it broadcasts
//!   `op(A)` where it lies and reads `B`'s rows in place, and only a column
//!   edge narrower than `NR` is copied, into a stack tile. With `trans_b`
//!   the vector runs across `C`'s rows instead (`SMALL_LANES` of them),
//!   `op(A)ᵀ` copied into a stack tile and `2·MR` rows of `B` broadcast in
//!   place. The thresholds are measured: up to 32 rows and `k = 64` the
//!   unpacked tile won on every shape tried; from 48 rows with a
//!   transposed `A` it lost on some, and at `64×128×128` it ran at 0.7×.
//!
//! **Kernels vectorize by construction.** Each kernel (`micro_kernel*`,
//! `small_kernel*`) is out of line, is its `k` loop and nothing else, and
//! returns its tile for the caller to store, so its accumulators are only
//! ever indexed by constants. Each `k` step is built from indexed loads
//! of separate rows, or from one contiguous run as a slice-to-array
//! conversion (written as indexed loads, LLVM merges a run into one
//! vector load and shuffles, ~10 % off the packed path). No closure-taking
//! array adaptor (`map`, `from_fn`) sits inside a `k` loop, because LLVM
//! may outline one (`core::array::try_map`) and then spill and reload the
//! whole tile at every step — which cut `train-compute` from ~29 k to
//! ~20 k samples/s when it happened. A CI step disassembles the kernels
//! and fails if any calls into `core::array`. A tile steps at most `MR`
//! rows at a time (`step`): LLVM unrolls that many into straight-line
//! vector code, but vectorizes a longer row loop across the rows, with
//! gathers.
//!
//! **Summation-order guarantee:** each `C[i][j]` accumulates its `k`
//! products in strictly ascending `k` order, exactly like the naive
//! kernel, as long as `k ≤ KC` (a single `k`-block). Two effects can
//! still perturb the low bits relative to [`gemm_reference`]:
//!
//! * on targets with FMA (any `target-cpu=native` build on modern x86 —
//!   see `.cargo/config.toml`), the micro-kernel uses `f32::mul_add`, so
//!   each product+add rounds **once** where the scalar reference rounds
//!   twice — a ≤ 1-ulp difference per accumulation step. Without the
//!   `fma` target feature the kernels are bit-identical in this regime
//!   (the differential suite asserts exact equality there);
//! * for `k > KC` the per-block partial sums are combined
//!   block-at-a-time, which genuinely reorders the reduction.
//!
//! Both effects are bounded by the differential suite's 1e-5 relative
//! tolerance (`crates/tensor/tests/kernel_equiv.rs`), and the runtime's
//! kernel-swap loss guard pins the end-to-end consequence: per-epoch
//! training losses across a backend swap agree to 1e-5 relative (and
//! exactly, without FMA).
//!
//! The swapped `trans_b` product computes each element as the same chain —
//! from 0.0, ascending `k` within each `KC` block, blocks combined in order
//! — with each product's two factors swapped. IEEE multiplication
//! commutes exactly, fused into an FMA or not, so the swap changes no bit:
//! the two layouts agree exactly, not within a tolerance. The unpacked
//! path computes the same chains too (from 0.0, ascending `k`, `mul_add`
//! exactly where the packed tile uses it) and stores each element once, as
//! an overwrite or an add, so it gives the packed path's bits.
//!
//! The scalar kernel is kept as [`gemm_reference`] and selectable at
//! runtime via [`set_thread_backend`] so tests and benches can run both
//! sides by side.

use std::cell::{Cell, RefCell};

/// Micro-kernel tile rows (accumulator height).
pub const MR: usize = 6;
/// Micro-kernel tile columns (accumulator width). Sized so the
/// `MR × NR` accumulator fills the architectural vector file without
/// spilling: 12 zmm registers on AVX-512 targets, 12 ymm otherwise.
pub const NR: usize = if cfg!(target_feature = "avx512f") {
    32
} else {
    16
};
/// `k`-dimension block: one packed `A` panel column-depth. Also the
/// bit-identical-summation envelope (see module docs).
pub const KC: usize = 256;
/// `m`-dimension block: rows of `A` packed at once (`MC·KC` floats ≈
/// 66 KiB, L2-resident). A multiple of `MR` just above 64, so a batch of
/// 64 packs as one block.
pub const MC: usize = 66;
/// `n`-dimension block: columns of `B` packed at once.
pub const NC: usize = 512;

/// Rows of `op(A)` up to which [`gemm_fast`] runs a product unpacked when
/// `k ≤ SMALL_K` (see the module docs). Measured, not derived: up to 32
/// rows the unpacked tile beat the packed kernel on every shape tried,
/// and from 48 rows with a transposed `A` it lost on some.
pub const SMALL_M: usize = 32;
/// Depth up to which [`gemm_fast`] runs unpacked: the stack tiles of the
/// unpacked path hold `SMALL_K` rows, 8 KB at most, and the unpacked tile
/// won at every depth up to it.
pub const SMALL_K: usize = 64;
/// Lanes of the unpacked `trans_b` tile, half an `NR` row: a `trans_b`
/// product runs unpacked only up to this many rows.
pub const SMALL_LANES: usize = NR / 2;
/// Rows of the unpacked tile.
const SR: usize = 4;
/// Rows of `B` the unpacked `trans_b` tile broadcasts: as many
/// accumulator registers as the `MR × NR` tile.
const ST: usize = 2 * MR;

/// Which matmul kernel [`gemm`] dispatches to on this thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The tiled, register-blocked kernel (default).
    #[default]
    Fast,
    /// The seed scalar `ikj` kernel — kept for differential tests,
    /// benches, and the kernel-swap loss guard.
    Naive,
}

thread_local! {
    static BACKEND: Cell<Backend> = const { Cell::new(Backend::Fast) };
}

/// Select the kernel used by [`gemm`] (and therefore every
/// `Tensor`/layer matmul) on the *current thread*. Thread-local so a
/// test or a pipeline worker can pin a backend without racing other
/// threads.
pub fn set_thread_backend(b: Backend) {
    BACKEND.with(|c| c.set(b));
}

/// The current thread's kernel selection.
pub fn thread_backend() -> Backend {
    BACKEND.with(|c| c.get())
}

/// `C (+)= op(A)·op(B)` on row-major storage, dispatching on the
/// thread's [`Backend`].
///
/// * `m, k, n`: dimensions of the *operation* — `op(A)` is `[m, k]`,
///   `op(B)` is `[k, n]`, `C` is `[m, n]`.
/// * `trans_a`: when set, `A` is stored `[k, m]` and used transposed
///   (likewise `trans_b` / `[n, k]`). Nothing is materialized: `trans_a`
///   changes how `A` is packed, `trans_b` runs the product as its
///   transpose with `B` read in place.
/// * `accumulate`: when set, adds into the existing contents of `C`
///   (`C += …`); otherwise `C` is overwritten.
// The nine parameters are the standard BLAS sgemm surface; bundling them
// into a struct would only rename the problem at every call site.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    trans_a: bool,
    trans_b: bool,
    accumulate: bool,
) {
    match thread_backend() {
        Backend::Fast => gemm_fast(c, a, b, m, k, n, trans_a, trans_b, accumulate),
        Backend::Naive => gemm_reference(c, a, b, m, k, n, trans_a, trans_b, accumulate),
    }
}

fn check_dims(c: &[f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k, "gemm: A has {} < {}·{}", a.len(), m, k);
    assert!(b.len() >= k * n, "gemm: B has {} < {}·{}", b.len(), k, n);
    assert!(c.len() >= m * n, "gemm: C has {} < {}·{}", c.len(), m, n);
}

/// The tiled kernel (see module docs). Prefer [`gemm`], which respects
/// the thread backend; this entry point exists for differential tests
/// and benches that need the fast path explicitly.
#[allow(clippy::too_many_arguments)]
pub fn gemm_fast(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    trans_a: bool,
    trans_b: bool,
    accumulate: bool,
) {
    check_dims(c, a, b, m, k, n);
    if m == 0 || n == 0 || k == 0 {
        if !accumulate {
            c[..m * n].fill(0.0);
        }
        return;
    }
    if k <= SMALL_K {
        // A transposed `A` feeds a tile `SR` of its columns at a time.
        if trans_b && m <= SMALL_LANES {
            return gemm_small_swapped(c, a, b, m, k, n, trans_a, !accumulate);
        } else if !trans_b && m <= SMALL_M && (m >= SR || !trans_a) {
            return gemm_small(c, a, b, m, k, n, trans_a, !accumulate);
        }
    }
    gemm_blocked(c, a, b, m, k, n, trans_a, trans_b, accumulate);
}

/// The packed, cache-blocked path of [`gemm_fast`], for products too large
/// to run unpacked.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    trans_a: bool,
    trans_b: bool,
    accumulate: bool,
) {
    PACK.with(|scratch| {
        let (a_pack, b_pack) = &mut *scratch.borrow_mut();
        if trans_b {
            gemm_swapped(c, a, b, m, k, n, trans_a, accumulate, b_pack);
        } else {
            gemm_packed(c, a, b, m, k, n, trans_a, accumulate, a_pack, b_pack);
        }
    });
}

thread_local! {
    /// This thread's `A` and `B` pack scratch (see the module docs).
    static PACK: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The first `len` floats of a pack buffer, growing it if it is short.
fn scratch(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// `C (+)= op(A)·B` with `B` stored `[k, n]`: both operands packed.
#[allow(clippy::too_many_arguments)]
fn gemm_packed(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    trans_a: bool,
    accumulate: bool,
    a_pack: &mut Vec<f32>,
    b_pack: &mut Vec<f32>,
) {
    let a_pack = scratch(a_pack, MC.min(m).next_multiple_of(MR) * KC.min(k));
    let b_pack = scratch(b_pack, KC.min(k) * NC.min(n).next_multiple_of(NR));
    let lda = if trans_a { m } else { k };
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // The first k-block *writes* C (β = 0) unless the caller asked
            // to accumulate — no pre-zeroing pass, no C read stream.
            let overwrite = !accumulate && pc == 0;
            pack::<NR>(b_pack, b, n, jc, nc, pc, kc, true);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack::<MR>(a_pack, a, lda, ic, mc, pc, kc, trans_a);
                for jr in (0..nc).step_by(NR) {
                    let bp = &b_pack[(jr / NR) * kc * NR..][..kc * NR];
                    for ir in (0..mc).step_by(MR) {
                        let ap = &a_pack[(ir / MR) * kc * MR..][..kc * MR];
                        let acc = micro_kernel(ap, bp);
                        let c = &mut c[(ic + ir) * n + jc + jr..];
                        let lanes = NR.min(nc - jr);
                        store(c, n, &acc[..MR.min(mc - ir)], lanes, false, overwrite);
                    }
                }
            }
        }
    }
}

/// `C (+)= op(A)·Bᵀ` with `B` stored `[n, k]`, computed as its transpose
/// `Cᵀ = B·op(A)ᵀ`. `B`'s rows are the micro-kernel's broadcast operand,
/// read where they lie; only `op(A)ᵀ` is packed (`k × m`: for `dx` the
/// gradient, which scales with the batch). Every element of `C` is the
/// chain [`gemm_packed`] computes with each product's factors swapped,
/// which is exact, so the two layouts give the same bits.
#[allow(clippy::too_many_arguments)]
fn gemm_swapped(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    trans_a: bool,
    accumulate: bool,
    b_pack: &mut Vec<f32>,
) {
    let b_pack = scratch(b_pack, KC.min(k) * NC.min(m).next_multiple_of(NR));
    let lda = if trans_a { m } else { k };
    for jc in (0..m).step_by(NC) {
        let nc = NC.min(m - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let overwrite = !accumulate && pc == 0;
            // op(A)ᵀ in `NR`-column panels is laid out just as op(A) in
            // `MR`-row panels: column `i` of the one is row `i` of the other.
            pack::<NR>(b_pack, a, lda, jc, nc, pc, kc, trans_a);
            for ir in (0..n).step_by(MR) {
                let rows = MR.min(n - ir);
                // A short edge panel repeats its last row; the tile rows it
                // feeds are never stored.
                let b_rows = std::array::from_fn(|r| &b[(ir + r.min(rows - 1)) * k + pc..][..kc]);
                for jr in (0..nc).step_by(NR) {
                    let bp = &b_pack[(jr / NR) * kc * NR..][..kc * NR];
                    let acc = micro_kernel_t(b_rows, bp);
                    let c = &mut c[(jc + jr) * n + ir..];
                    store(c, n, &acc[..rows], NR.min(nc - jr), true, overwrite);
                }
            }
        }
    }
}

/// `C (+)= op(A)·B` unpacked, for few rows: `SR`-row tiles broadcast
/// `op(A)` where it lies and read `B`'s rows in place. Only a column edge
/// narrower than `NR` is copied, into a stack tile; its padding lanes
/// compute chains that are never stored.
#[allow(clippy::too_many_arguments)]
fn gemm_small(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    trans_a: bool,
    overwrite: bool,
) {
    for j0 in (0..n).step_by(NR) {
        let cols = NR.min(n - j0);
        let c = &mut c[j0..];
        if cols == NR {
            small_panel(c, a, &b[j0..], n, m, k, n, cols, trans_a, overwrite);
        } else {
            let mut edge = [[0.0f32; NR]; SMALL_K];
            for (p, dst) in edge.iter_mut().enumerate().take(k) {
                // Whole `NR`-float copies where `B` runs on that far: the
                // lanes past `cols` are never stored.
                let src = &b[j0 + p * n..];
                if src.len() >= NR {
                    dst.copy_from_slice(&src[..NR]);
                } else {
                    dst[..cols].copy_from_slice(&src[..cols]);
                }
            }
            let bp = edge.as_flattened();
            small_panel(c, a, bp, NR, m, k, n, cols, trans_a, overwrite);
        }
    }
}

/// [`gemm_small`] over one `cols`-wide panel of `B` (row stride `ldb`) and
/// of `C` (row stride `ldc`).
#[allow(clippy::too_many_arguments)]
fn small_panel(
    c: &mut [f32],
    a: &[f32],
    bp: &[f32],
    ldb: usize,
    m: usize,
    k: usize,
    ldc: usize,
    cols: usize,
    trans_a: bool,
    overwrite: bool,
) {
    for i0 in (0..m).step_by(SR) {
        // A short last tile starts early, over rows the tile before it
        // stored already, and stores only its own.
        let t0 = if trans_a {
            i0.min(m.saturating_sub(SR))
        } else {
            i0
        };
        let acc = if trans_a {
            small_kernel_tn(&a[t0..], m, k, bp, ldb)
        } else {
            // Here the short tile repeats its last row instead.
            let last = m - 1;
            let row = |i: usize| &a[i.min(last) * k..][..k];
            small_kernel(row(i0), row(i0 + 1), row(i0 + 2), row(i0 + 3), bp, ldb)
        };
        let skip = i0 - t0;
        let rows = SR.min(m - i0);
        store(
            &mut c[i0 * ldc..],
            ldc,
            &acc[skip..skip + rows],
            cols,
            false,
            overwrite,
        );
    }
}

/// The unpacked tile for an untransposed `A`: row `r` of the tile
/// broadcasts `a_r[p]`, and step `p` reads `B`'s row `p` in place (stride
/// `ldb`).
#[inline(never)]
fn small_kernel(
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    bp: &[f32],
    ldb: usize,
) -> [[f32; NR]; SR] {
    let kc = a0.len();
    let (a1, a2, a3) = (&a1[..kc], &a2[..kc], &a3[..kc]);
    let a_cols = (0..kc).map(|p| [a0[p], a1[p], a2[p], a3[p]]);
    tile(a_cols.zip(bp.chunks(ldb)))
}

/// The unpacked tile for a transposed `A` (stored `[k, lda]`, starting at
/// the tile's first column): step `p` broadcasts the `SR` floats at the
/// head of `A`'s row `p`.
#[inline(never)]
fn small_kernel_tn(a: &[f32], lda: usize, kc: usize, bp: &[f32], ldb: usize) -> [[f32; NR]; SR] {
    let a_cols = a
        .chunks(lda)
        .take(kc)
        .map(|row| <[f32; SR]>::try_from(&row[..SR]).expect("SR floats"));
    tile(a_cols.zip(bp.chunks(ldb)))
}

/// `C (+)= op(A)·Bᵀ` unpacked, for `m ≤ SMALL_LANES` rows, as the swapped
/// product `Cᵀ = B·op(A)ᵀ`: the vector runs across `C`'s rows, `op(A)ᵀ`
/// copied into a `k × SMALL_LANES` stack tile (read in place when it already
/// is one), and `ST` rows of `B` broadcast where they lie. Each element is
/// [`gemm_swapped`]'s chain, so the bits are the packed path's.
#[allow(clippy::too_many_arguments)]
fn gemm_small_swapped(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    trans_a: bool,
    overwrite: bool,
) {
    let mut at = [[0.0f32; SMALL_LANES]; SMALL_K];
    let ap = if trans_a && m == SMALL_LANES {
        &a[..k * SMALL_LANES]
    } else {
        if trans_a {
            for (dst, src) in at.iter_mut().zip(a.chunks_exact(m)).take(k) {
                dst[..m].copy_from_slice(src);
            }
        } else {
            for (i, src) in a.chunks_exact(k).take(m).enumerate() {
                for (dst, &v) in at.iter_mut().zip(src) {
                    dst[i] = v;
                }
            }
        }
        at[..k].as_flattened()
    };
    for j0 in (0..n).step_by(ST) {
        let rows = ST.min(n - j0);
        let mut b_rows = [&b[..0]; ST];
        for (r, row) in b_rows.iter_mut().enumerate() {
            *row = &b[(j0 + r.min(rows - 1)) * k..][..k];
        }
        let acc = small_kernel_t(b_rows, ap);
        store(
            &mut c[j0..],
            n,
            &acc.as_flattened()[..rows],
            m,
            true,
            overwrite,
        );
    }
}

/// The swapped unpacked tile: row `r` broadcasts `b_rows[r][p]`, and step
/// `p` reads row `p` of the `op(A)ᵀ` tile. Two `MR`-row halves, each
/// stepped as one tile (see [`step`]).
#[inline(never)]
fn small_kernel_t(b_rows: [&[f32]; ST], ap: &[f32]) -> [[[f32; SMALL_LANES]; MR]; 2] {
    let kc = ap.len() / SMALL_LANES;
    let [r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10, r11] = b_rows;
    let (r0, r1, r2, r3, r4, r5) = (
        &r0[..kc],
        &r1[..kc],
        &r2[..kc],
        &r3[..kc],
        &r4[..kc],
        &r5[..kc],
    );
    let (r6, r7, r8, r9, r10, r11) = (
        &r6[..kc],
        &r7[..kc],
        &r8[..kc],
        &r9[..kc],
        &r10[..kc],
        &r11[..kc],
    );
    let mut acc = [[[0.0f32; SMALL_LANES]; MR]; 2];
    for (p, av) in ap.chunks_exact(SMALL_LANES).enumerate().take(kc) {
        step(&mut acc[0], [r0[p], r1[p], r2[p], r3[p], r4[p], r5[p]], av);
        step(
            &mut acc[1],
            [r6[p], r7[p], r8[p], r9[p], r10[p], r11[p]],
            av,
        );
    }
    acc
}

/// Pack a `kc × width` block of an operand into `W`-wide panels laid out
/// `k`-major, so the micro-kernel reads `W` consecutive floats per `k`
/// step: `A` in `MR`-row panels, `B` in `NR`-column panels. Element
/// `(p, x)` of the block is `src[(pc + p)·ld + x0 + x]` when
/// `runs_along_width` (a panel's `W` floats are adjacent per `k` step:
/// straight copies), else `src[(x0 + x)·ld + pc + p]` (each panel column
/// is a contiguous `k` run, written across the panel at stride `W`).
/// Short edge panels are zero-padded (0·x contributes exactly 0), so every
/// float a kernel reads is written here.
#[allow(clippy::too_many_arguments)]
fn pack<const W: usize>(
    dst: &mut [f32],
    src: &[f32],
    ld: usize,
    x0: usize,
    width: usize,
    pc: usize,
    kc: usize,
    runs_along_width: bool,
) {
    for (xp, panel) in (0..width).step_by(W).zip(dst.chunks_exact_mut(kc * W)) {
        let cols = W.min(width - xp);
        if runs_along_width {
            for (p, step) in panel.chunks_exact_mut(W).enumerate() {
                let run = &src[(pc + p) * ld + x0 + xp..];
                if cols == W {
                    step.copy_from_slice(&run[..W]);
                } else {
                    step[..cols].copy_from_slice(&run[..cols]);
                }
            }
        } else {
            for (x, run) in src.chunks_exact(ld).skip(x0 + xp).take(cols).enumerate() {
                for (p, &v) in run[pc..pc + kc].iter().enumerate() {
                    panel[p * W + x] = v;
                }
            }
        }
        if cols < W {
            for step in panel.chunks_exact_mut(W) {
                step[cols..].fill(0.0);
            }
        }
    }
}

/// An `R × W` register tile over one `k` panel: `acc[r][j]` is a chain
/// from 0.0 over `av[r]·bv[j]`, ascending `k`, fed one `(av, bv)` pair a
/// step. The accumulator array never leaves registers and the loop is
/// branch-free, which is what lets LLVM keep it vectorized (see the
/// module docs for how a kernel builds each step's `av`).
#[inline(always)]
fn tile<'b, const R: usize, const W: usize>(
    steps: impl Iterator<Item = ([f32; R], &'b [f32])>,
) -> [[f32; W]; R] {
    let mut acc = [[0.0f32; W]; R];
    for (av, bv) in steps {
        step(&mut acc, av, bv);
    }
    acc
}

/// One `k` step of a tile: `acc[r][j] += av[r]·bv[j]`, fused where the
/// target has FMA. At most `MR` rows a call: LLVM unrolls that many rows
/// into straight-line vector code, but vectorizes a longer row loop
/// across the rows, gathering and scattering the accumulators.
#[inline(always)]
fn step<const R: usize, const W: usize>(acc: &mut [[f32; W]; R], av: [f32; R], bv: &[f32]) {
    let bv = &bv[..W];
    for r in 0..R {
        let ar = av[r];
        let row = &mut acc[r];
        if cfg!(target_feature = "fma") {
            for j in 0..W {
                row[j] = ar.mul_add(bv[j], row[j]);
            }
        } else {
            for j in 0..W {
                row[j] += ar * bv[j];
            }
        }
    }
}

/// Store the first `lanes` lanes of each tile row in `acc` at `c` (row
/// stride `ldc`): tile row `r` as row `r` of `c`, or as its column `r`
/// when `transposed`. An overwrite, or an add into what `c` holds.
#[inline(always)]
fn store<const W: usize>(
    c: &mut [f32],
    ldc: usize,
    acc: &[[f32; W]],
    lanes: usize,
    transposed: bool,
    overwrite: bool,
) {
    let put = |dst: &mut f32, v: f32| {
        if overwrite {
            *dst = v;
        } else {
            *dst += v;
        }
    };
    if transposed {
        for j in 0..lanes {
            let ccol = &mut c[j * ldc..j * ldc + acc.len()];
            for (dst, accr) in ccol.iter_mut().zip(acc) {
                put(dst, accr[j]);
            }
        }
    } else if lanes == W {
        // Whole rows: a constant trip count, so LLVM stores whole vectors.
        for (r, accr) in acc.iter().enumerate() {
            let crow = &mut c[r * ldc..r * ldc + W];
            if overwrite {
                crow.copy_from_slice(accr);
            } else {
                for j in 0..W {
                    crow[j] += accr[j];
                }
            }
        }
    } else {
        for (r, accr) in acc.iter().enumerate() {
            let crow = &mut c[r * ldc..r * ldc + lanes];
            for (dst, &v) in crow.iter_mut().zip(accr) {
                put(dst, v);
            }
        }
    }
}

/// The `MR × NR` tile `Aᵖ·Bᵖ` over one packed `k` panel of each operand.
/// Out-of-line on purpose, as is every kernel below: inlined into the
/// blocking loops, LLVM's loop vectorizer gives up and emits scalar FMAs.
/// A kernel is its `k` loop and nothing else: the caller stores the tile
/// it returns, so the accumulators are indexed by constants only and
/// never leave registers.
#[inline(never)]
fn micro_kernel(ap: &[f32], bp: &[f32]) -> [[f32; NR]; MR] {
    let a_cols = ap
        .chunks_exact(MR)
        .map(|col| <[f32; MR]>::try_from(col).expect("chunks of MR floats"));
    tile(a_cols.zip(bp.chunks_exact(NR)))
}

/// The swapped product's tile `B·Bᵖ`: the broadcast operand is `MR` rows
/// of `B` read in place, and tile row `r` is column `r` of `C`. Cutting
/// each row to `kc` first lets LLVM hoist its bounds check out of the `k`
/// loop; left inside, six more branches per step slowed the loop 2–3×.
#[inline(never)]
fn micro_kernel_t(b_rows: [&[f32]; MR], bp: &[f32]) -> [[f32; NR]; MR] {
    let kc = bp.len() / NR;
    let [r0, r1, r2, r3, r4, r5] = b_rows;
    let (r0, r1, r2) = (&r0[..kc], &r1[..kc], &r2[..kc]);
    let (r3, r4, r5) = (&r3[..kc], &r4[..kc], &r5[..kc]);
    let a_cols = (0..kc).map(|p| [r0[p], r1[p], r2[p], r3[p], r4[p], r5[p]]);
    tile(a_cols.zip(bp.chunks_exact(NR)))
}

/// The seed scalar kernel: `ikj` loops with the original zero-skip
/// branch, extended with `trans`/`accumulate` handling so every call
/// site can swap backends. This is the differential-testing reference.
#[allow(clippy::too_many_arguments)]
pub fn gemm_reference(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    trans_a: bool,
    trans_b: bool,
    accumulate: bool,
) {
    check_dims(c, a, b, m, k, n);
    if !accumulate {
        c[..m * n].fill(0.0);
    }
    if !trans_a && !trans_b {
        // Fast-ish slice form, byte-for-byte the seed `Tensor::matmul`.
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut c[i * n..(i + 1) * n];
            for (p, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
    } else {
        for i in 0..m {
            for p in 0..k {
                let av = if trans_a { a[p * m + i] } else { a[i * k + p] };
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    let bv = if trans_b { b[j * k + p] } else { b[p * n + j] };
                    c[i * n + j] += av * bv;
                }
            }
        }
    }
}

/// Cache-blocked out-of-place transpose: `dst[j][i] = src[i][j]` for an
/// `m × n` source. 32×32 tiles keep both the read and write streams
/// within a few cache lines.
pub fn transpose_into(dst: &mut [f32], src: &[f32], m: usize, n: usize) {
    assert!(src.len() >= m * n && dst.len() >= m * n);
    const TB: usize = 32;
    for ib in (0..m).step_by(TB) {
        let imax = (ib + TB).min(m);
        for jb in (0..n).step_by(TB) {
            let jmax = (jb + TB).min(n);
            for i in ib..imax {
                for j in jb..jmax {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{normal, rng};

    fn run_both(
        m: usize,
        k: usize,
        n: usize,
        trans_a: bool,
        trans_b: bool,
        accumulate: bool,
    ) -> (Vec<f32>, Vec<f32>) {
        let a = normal(&[m * k], 1.0, &mut rng(m as u64 * 31 + k as u64));
        let b = normal(&[k * n], 1.0, &mut rng(n as u64 * 17 + k as u64 + 1));
        let seed_c = normal(&[m * n], 1.0, &mut rng(99));
        let mut c1 = seed_c.data().to_vec();
        let mut c2 = seed_c.data().to_vec();
        gemm_fast(
            &mut c1,
            a.data(),
            b.data(),
            m,
            k,
            n,
            trans_a,
            trans_b,
            accumulate,
        );
        gemm_reference(
            &mut c2,
            a.data(),
            b.data(),
            m,
            k,
            n,
            trans_a,
            trans_b,
            accumulate,
        );
        (c1, c2)
    }

    fn assert_close(c1: &[f32], c2: &[f32]) {
        for (x, y) in c1.iter().zip(c2.iter()) {
            let denom = 1.0f32.max(x.abs()).max(y.abs());
            assert!((x - y).abs() / denom < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn known_2x3_by_3x2() {
        let a = [1., 2., 3., 4., 5., 6.];
        let b = [7., 8., 9., 10., 11., 12.];
        let mut c = [0.0; 4];
        gemm_fast(&mut c, &a, &b, 2, 3, 2, false, false, false);
        assert_eq!(c, [58., 64., 139., 154.]);
    }

    #[test]
    fn matches_reference_across_edge_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (MR, KC, NR),
            (MR + 1, 3, NR + 1),
            (MC + 5, KC + 7, NC / 8 + 3),
            (3, 70, 130),
        ] {
            let (c1, c2) = run_both(m, k, n, false, false, false);
            assert_close(&c1, &c2);
        }
    }

    #[test]
    fn summation_order_is_preserved_when_k_fits_one_block() {
        // The kernel-swap loss guard rests on this: a single k-block
        // preserves the naive kernel's summation order. Without FMA that
        // means bit-identical results; with FMA each step rounds once
        // instead of twice, so the drift is at most ~1 ulp per step.
        for &(m, k, n) in &[(5, 17, 9), (32, KC, 32), (MR, 1, NR)] {
            let (c1, c2) = run_both(m, k, n, false, false, false);
            if cfg!(target_feature = "fma") {
                for (x, y) in c1.iter().zip(c2.iter()) {
                    let denom = 1.0f32.max(x.abs()).max(y.abs());
                    assert!(
                        (x - y).abs() / denom < 1e-5,
                        "({m},{k},{n}): {x} vs {y} beyond FMA rounding"
                    );
                }
            } else {
                assert_eq!(c1, c2, "({m},{k},{n}) must be bit-identical");
            }
        }
    }

    #[test]
    fn transposed_operands_match_reference() {
        for &(ta, tb) in &[(true, false), (false, true), (true, true)] {
            let (c1, c2) = run_both(13, 29, 11, ta, tb, false);
            assert_close(&c1, &c2);
        }
    }

    #[test]
    fn accumulate_adds_into_existing_c() {
        let (c1, c2) = run_both(9, 21, 14, false, false, true);
        assert_close(&c1, &c2);
        // And really did accumulate: a zero product leaves C untouched.
        let mut c = vec![3.0; 4];
        gemm_fast(&mut c, &[0.0; 2], &[0.0; 2], 2, 1, 2, false, false, true);
        assert_eq!(c, vec![3.0; 4]);
    }

    #[test]
    fn k_beyond_one_block_stays_within_tolerance() {
        let (c1, c2) = run_both(4, 2 * KC + 13, 6, false, false, false);
        assert_close(&c1, &c2);
    }

    /// A `gemm`-shaped entry point: [`gemm_fast`], the packed path alone,
    /// or the reference.
    type Gemm = fn(&mut [f32], &[f32], &[f32], usize, usize, usize, bool, bool, bool);

    /// The unpacked path gives the packed path's bits, not merely values
    /// within a tolerance: every element is the same chain, stored once.
    /// The shapes straddle every threshold of [`gemm_fast`]'s dispatch
    /// (`m` past `SR` and `SMALL_LANES`; `k` past `SMALL_K`) and every
    /// edge of the unpacked tiles (`n` off the `NR` and `2·MR` grids).
    #[test]
    fn unpacked_path_is_bit_identical_to_packed() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let flags = (0..8).map(|f| (f & 1 != 0, f & 2 != 0, f & 4 != 0));
        for (trans_a, trans_b, accumulate) in flags {
            for m in 1..=17 {
                for k in [1, 7, 32, 64, 65] {
                    for n in [1, 10, 31, 32, 33, 70] {
                        let s = (m * 131 + k * 7 + n) as u64;
                        let a = normal(&[m * k], 1.0, &mut rng(s));
                        let b = normal(&[k * n], 1.0, &mut rng(s ^ 5));
                        let c0 = normal(&[m * n], 1.0, &mut rng(s ^ 6));
                        let (a, b) = (a.data(), b.data());
                        let run = |f: Gemm| {
                            let mut c = c0.data().to_vec();
                            f(&mut c, a, b, m, k, n, trans_a, trans_b, accumulate);
                            c
                        };
                        let case = format!("({m},{k},{n}) {trans_a} {trans_b} {accumulate}");
                        let fast = run(gemm_fast);
                        assert_eq!(bits(&fast), bits(&run(gemm_blocked)), "{case}");
                        for (x, y) in fast.iter().zip(&run(gemm_reference)) {
                            let denom = 1.0f32.max(x.abs()).max(y.abs());
                            assert!((x - y).abs() / denom < 1e-5, "{case}: {x} vs {y}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transpose_into_round_trip() {
        let src = normal(&[7 * 45], 1.0, &mut rng(5));
        let mut t = vec![0.0; 7 * 45];
        let mut back = vec![0.0; 7 * 45];
        transpose_into(&mut t, src.data(), 7, 45);
        transpose_into(&mut back, &t, 45, 7);
        assert_eq!(back, src.data());
        assert_eq!(t[3 * 7 + 2], src.data()[2 * 45 + 3]);
    }

    #[test]
    fn thread_backend_dispatch() {
        assert_eq!(thread_backend(), Backend::Fast);
        set_thread_backend(Backend::Naive);
        assert_eq!(thread_backend(), Backend::Naive);
        set_thread_backend(Backend::Fast);
    }
}
