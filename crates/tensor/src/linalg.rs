//! Dense matrix products used by the network layers.
//!
//! The three product flavours (`A·B`, `Aᵀ·B`, `A·Bᵀ`) are exactly the ones
//! needed for a linear layer's forward pass and its two backward products,
//! and — through im2col — for convolution. The public free functions
//! ([`matmul`], [`matmul_at_b`], [`matmul_a_bt`], [`matvec`]) are thin
//! dispatchers through the process-current [`crate::backend::Backend`];
//! this module owns the two implementations behind that seam:
//!
//! * the **scalar** bodies (`scalar_matmul` and friends) — naive
//!   ascending-`k` `mul_add` loops, the correctness oracle that
//!   [`crate::backend::ScalarBackend`] exposes;
//! * the **packed** pipeline (`gemm`) behind
//!   [`crate::backend::PackedBackend`]:
//!   1. [`fn@crate::select`] picks a routine for the problem shape;
//!   2. the private `pack` module copies operands into contiguous
//!      register panels (per-flavour gather, shared layout);
//!   3. the private `microkernel` module computes each `MR × NR` output
//!      tile over the **full** `k` extent with one register accumulator
//!      per element.
//!
//! Because `k` is never split, every output element is produced by the
//! same single ascending-`k` fused-multiply-add chain as the scalar
//! bodies — the packed routines are **bitwise identical** to the scalar
//! backend, to each other, and to themselves at any `PV_NUM_THREADS`
//! (threads partition output rows only). See `DESIGN.md` §12 for the
//! numeric contract and §13 for the backend seam.

// pv-analyze: allow-file(hotpath-slice-index) -- the drivers index into
// panel and row slices whose bounds are established by the blocking
// arithmetic; iterator rewrites measurably regress the kernels (see
// BENCH_kernels.json)

use crate::microkernel::{dot_mr, tile_narrow, tile_wide, MR};
use crate::pack::{pack_a_cols, pack_a_rows, pack_b_cols, pack_b_rows};
use crate::par::{parallel_for_chunks_mut, worker_count};
use crate::select::{select, select_matvec, Routine, Variant};
use crate::tensor::Tensor;

/// Shape-checks one `C = A·B` problem and returns `(m, k, n)`.
///
/// Shared by every backend so the panic messages (and the
/// `#[should_panic]` tests that pin them) stay identical regardless of
/// which implementation runs.
pub(crate) fn ab_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.ndim(), 2, "matmul: A must be a matrix");
    assert_eq!(b.ndim(), 2, "matmul: B must be a matrix");
    let (m, k) = (a.dim(0), a.dim(1));
    let (kb, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, kb, "matmul: inner dims {k} vs {kb}");
    (m, k, n)
}

/// Shape-checks one `C = Aᵀ·B` problem and returns `(m, k, n)`.
pub(crate) fn atb_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.ndim(), 2, "matmul_at_b: A must be a matrix");
    assert_eq!(b.ndim(), 2, "matmul_at_b: B must be a matrix");
    let (k, m) = (a.dim(0), a.dim(1));
    let (kb, n) = (b.dim(0), b.dim(1));
    assert_eq!(k, kb, "matmul_at_b: leading dims {k} vs {kb}");
    (m, k, n)
}

/// Shape-checks one `C = A·Bᵀ` problem and returns `(m, k, n)`.
pub(crate) fn abt_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.ndim(), 2, "matmul_a_bt: A must be a matrix");
    assert_eq!(b.ndim(), 2, "matmul_a_bt: B must be a matrix");
    let (m, k) = (a.dim(0), a.dim(1));
    let (n, kb) = (b.dim(0), b.dim(1));
    assert_eq!(k, kb, "matmul_a_bt: trailing dims {k} vs {kb}");
    (m, k, n)
}

/// Shape-checks one `y = A·x` problem and returns `(m, n)`.
pub(crate) fn matvec_dims(a: &Tensor, x: &Tensor) -> (usize, usize) {
    assert_eq!(a.ndim(), 2, "matvec: A must be a matrix");
    let (m, n) = (a.dim(0), a.dim(1));
    assert_eq!(x.len(), n, "matvec: dim mismatch");
    (m, n)
}

/// Scalar body of `C = A·B`: naive triple loop, no blocking, no packing,
/// no parallelism — the code a first-year textbook would write, except
/// that the inner step uses [`f32::mul_add`] so each output element is a
/// single ascending-`k` fused-multiply-add chain. Every optimized routine
/// in this module is required (and property-tested) to be **bitwise
/// identical** to these scalar bodies.
pub(crate) fn scalar_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dim(0), a.dim(1));
    let n = b.dim(1);
    let (ad, bd) = (a.data(), b.data());
    let mut c = Tensor::zeros(&[m, n]);
    let cd = c.data_mut();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = bd[p * n + j].mul_add(ad[i * k + p], acc);
            }
            cd[i * n + j] = acc;
        }
    }
    c
}

/// Scalar body of `C = Aᵀ·B` (see [`scalar_matmul`] for the chain contract).
pub(crate) fn scalar_matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.dim(0), a.dim(1));
    let n = b.dim(1);
    let (ad, bd) = (a.data(), b.data());
    let mut c = Tensor::zeros(&[m, n]);
    let cd = c.data_mut();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = bd[p * n + j].mul_add(ad[p * m + i], acc);
            }
            cd[i * n + j] = acc;
        }
    }
    c
}

/// Scalar body of `C = A·Bᵀ` (see [`scalar_matmul`] for the chain contract).
pub(crate) fn scalar_matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dim(0), a.dim(1));
    let n = b.dim(0);
    let (ad, bd) = (a.data(), b.data());
    let mut c = Tensor::zeros(&[m, n]);
    let cd = c.data_mut();
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = bd[j * k + p].mul_add(ad[i * k + p], acc);
            }
            cd[i * n + j] = acc;
        }
    }
    c
}

/// Scalar body of `y = A·x` (see [`scalar_matmul`] for the chain contract).
pub(crate) fn scalar_matvec(a: &Tensor, x: &Tensor) -> Tensor {
    let (m, n) = (a.dim(0), a.dim(1));
    let (ad, xd) = (a.data(), x.data());
    let mut y = Tensor::zeros(&[m]);
    let yd = y.data_mut();
    for i in 0..m {
        let mut acc = 0.0f32;
        for p in 0..n {
            acc = xd[p].mul_add(ad[i * n + p], acc);
        }
        yd[i] = acc;
    }
    y
}

std::thread_local! {
    /// Per-thread pack scratch (B panels, A panels), reused across GEMM
    /// calls so steady-state products never allocate: a freed-and-
    /// reallocated multi-hundred-KB buffer costs a page-fault sweep per
    /// call, which is material next to a sub-millisecond kernel. Stale
    /// contents are fine — the pack gathers overwrite every element of
    /// the panels they fill, padding included.
    static PACK_SCRATCH: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// The packed GEMM driver shared by all three flavours.
///
/// The calling thread packs all of `B` into `nr`-wide panels and all of
/// `A` into `MR`-row panels once (both read-shared across workers, both
/// in reused thread-local scratch), then parallelizes over `MR`-aligned
/// row blocks of `C`. Each worker sweeps its row range with the B panel
/// as the *outer* loop — one `k × nr` B panel stays cache-resident across
/// the worker's whole row range — so `A` and `B` are each gathered
/// exactly once per product and panel reads hit L1/L2 regardless of
/// shape or thread count.
// BLAS-convention flat argument list, matching the microkernel seam.
#[allow(clippy::too_many_arguments)]
fn gemm_packed(
    variant: Variant,
    routine: Routine,
    ad: &[f32],
    bd: &[f32],
    c: &mut Tensor,
    m: usize,
    k: usize,
    n: usize,
) {
    // pv-analyze: allow(hotpath-panic) -- selector contract: packed
    // routines always carry a panel width
    let nr = routine.panel_width().expect("packed routine has a width");
    let tile = match routine {
        Routine::PackedNarrow => tile_narrow,
        _ => tile_wide,
    };
    let panels = n.div_ceil(nr);
    let row_blocks = m.div_ceil(MR);
    PACK_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let (bp, ap) = &mut *scratch;
        bp.resize(panels * k * nr, 0.0);
        ap.resize(row_blocks * k * MR, 0.0);
        for (jb, panel) in bp.chunks_exact_mut(k * nr).enumerate() {
            match variant {
                Variant::Ab | Variant::AtB => pack_b_cols(bd, k, n, jb * nr, nr, panel),
                Variant::ABt => pack_b_rows(bd, n, k, jb * nr, nr, panel),
            }
        }
        for (bi, ablock) in ap.chunks_exact_mut(k * MR).enumerate() {
            match variant {
                Variant::Ab | Variant::ABt => pack_a_rows(ad, m, k, bi * MR, ablock),
                Variant::AtB => pack_a_cols(ad, k, m, bi * MR, ablock),
            }
        }
        let (bp, ap) = (&*bp, &*ap);
        let blocks_per_worker = row_blocks.div_ceil(worker_count(m * k * n));
        let rows_per_chunk = blocks_per_worker * MR;
        parallel_for_chunks_mut(c.data_mut(), rows_per_chunk * n, |chunk_idx, cchunk| {
            let block_base = chunk_idx * blocks_per_worker;
            let rows_here = cchunk.len() / n;
            let apacked = &ap[block_base * k * MR..];
            for (jb, panel) in bp.chunks_exact(k * nr).enumerate() {
                let j0 = jb * nr;
                let nr_eff = (n - j0).min(nr);
                for (bi, ablock) in apacked.chunks_exact(k * MR).enumerate() {
                    let r0 = bi * MR;
                    if r0 >= rows_here {
                        break;
                    }
                    let mr_eff = (rows_here - r0).min(MR);
                    tile(
                        k,
                        ablock,
                        panel,
                        &mut cchunk[r0 * n + j0..],
                        n,
                        mr_eff,
                        nr_eff,
                    );
                }
            }
        });
    });
}

/// The `n == 1` packed driver: `MR`-row A panels feeding the
/// [`dot_mr`] microkernel against the (already contiguous) operand
/// column.
///
/// Covers matvec and tall-skinny `n == 1` GEMMs — the shapes PR 6 left on
/// the direct fallback. `B` needs no packing: for every flavour a
/// single-column (or single-row, for `A·Bᵀ`) operand is already the
/// contiguous `k`-vector the dot kernel wants. `A` packs exactly as in
/// [`gemm_packed`], and workers partition `MR`-aligned row blocks, so the
/// bitwise and thread-invariance contracts carry over unchanged.
fn gemm_packed_dot(variant: Variant, ad: &[f32], bd: &[f32], c: &mut [f32], m: usize, k: usize) {
    let row_blocks = m.div_ceil(MR);
    PACK_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let (_, ap) = &mut *scratch;
        ap.resize(row_blocks * k * MR, 0.0);
        for (bi, ablock) in ap.chunks_exact_mut(k * MR).enumerate() {
            match variant {
                Variant::Ab | Variant::ABt => pack_a_rows(ad, m, k, bi * MR, ablock),
                Variant::AtB => pack_a_cols(ad, k, m, bi * MR, ablock),
            }
        }
        let ap = &*ap;
        let blocks_per_worker = row_blocks.div_ceil(worker_count(m * k));
        parallel_for_chunks_mut(c, blocks_per_worker * MR, |chunk_idx, ychunk| {
            let block_base = chunk_idx * blocks_per_worker;
            let ablocks = ap[block_base * k * MR..].chunks_exact(k * MR);
            for (bi, ablock) in ablocks.enumerate() {
                let r0 = bi * MR;
                if r0 >= ychunk.len() {
                    break;
                }
                let mr_eff = (ychunk.len() - r0).min(MR);
                dot_mr(k, ablock, bd, &mut ychunk[r0..r0 + mr_eff]);
            }
        });
    });
}

/// The unpacked fallback for problems too small to amortize panel copies.
///
/// `A·B` and `Aᵀ·B` run as rank-1 updates into `C` rows (ascending `p`,
/// single memory accumulator per element); `A·Bᵀ` as per-element dot
/// chains. All three use `mul_add`, so results stay bitwise identical to
/// the scalar bodies.
fn gemm_direct(
    variant: Variant,
    ad: &[f32],
    bd: &[f32],
    c: &mut Tensor,
    m: usize,
    k: usize,
    n: usize,
) {
    let rows_per_block = m.div_ceil(worker_count(m * k * n));
    parallel_for_chunks_mut(c.data_mut(), rows_per_block * n, |block, cblock| {
        let i0 = block * rows_per_block;
        for (ci, crow) in cblock.chunks_mut(n).enumerate() {
            let i = i0 + ci;
            match variant {
                Variant::Ab => {
                    for p in 0..k {
                        let av = ad[i * k + p];
                        for (cv, &bv) in crow.iter_mut().zip(&bd[p * n..(p + 1) * n]) {
                            *cv = bv.mul_add(av, *cv);
                        }
                    }
                }
                Variant::AtB => {
                    for p in 0..k {
                        let av = ad[p * m + i];
                        for (cv, &bv) in crow.iter_mut().zip(&bd[p * n..(p + 1) * n]) {
                            *cv = bv.mul_add(av, *cv);
                        }
                    }
                }
                Variant::ABt => {
                    let arow = &ad[i * k..(i + 1) * k];
                    for (j, cv) in crow.iter_mut().enumerate() {
                        let mut acc = 0.0f32;
                        for (&av, &bv) in arow.iter().zip(&bd[j * k..(j + 1) * k]) {
                            acc = bv.mul_add(av, acc);
                        }
                        *cv = acc;
                    }
                }
            }
        }
    });
}

/// Shape-selects and runs one packed-pipeline product; shared tail of the
/// [`crate::backend::PackedBackend`] GEMM methods and of the sparse
/// backend's dense fallback (dims already checked by the caller).
/// `backend` labels the obs span with whichever backend dispatched here.
pub(crate) fn gemm(
    backend: &'static str,
    variant: Variant,
    ad: &[f32],
    bd: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Tensor {
    let routine = select(variant, m, k, n);
    let _kt = crate::profile::kernel_timer_call(crate::profile::KernelCall {
        name: variant.kernel_name(),
        backend,
        routine: routine.name(),
        shape: [m, k, n],
    });
    let mut c = Tensor::zeros(&[m, n]);
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    match routine {
        Routine::Direct => gemm_direct(variant, ad, bd, &mut c, m, k, n),
        Routine::PackedDot => gemm_packed_dot(variant, ad, bd, c.data_mut(), m, k),
        _ => gemm_packed(variant, routine, ad, bd, &mut c, m, k, n),
    }
    c
}

/// Packed-pipeline matvec `y = A·x` (dims already checked by the caller):
/// routes through [`select_matvec`] to the same `MR`-row dot driver as
/// `n == 1` GEMMs, or the serial scalar loop below the packing threshold.
pub(crate) fn packed_matvec(backend: &'static str, a: &Tensor, x: &Tensor) -> Tensor {
    let (m, n) = (a.dim(0), a.dim(1));
    let routine = select_matvec(m, n);
    let _kt = crate::profile::kernel_timer_call(crate::profile::KernelCall {
        name: "matvec",
        backend,
        routine: routine.name(),
        shape: [m, n, 1],
    });
    if routine == Routine::PackedDot {
        let mut y = Tensor::zeros(&[m]);
        gemm_packed_dot(Variant::Ab, a.data(), x.data(), y.data_mut(), m, n);
        y
    } else {
        scalar_matvec(a, x)
    }
}

/// `C = A · B` for `A: [m, k]`, `B: [k, n]`.
///
/// Dispatches through the current [`crate::backend::Backend`] (scoped
/// override, else the `PV_BACKEND` process default); every backend is
/// bitwise identical to [`crate::backend::ScalarBackend`] for every
/// shape, routine, and thread count.
///
/// # Panics
///
/// Panics if the operands are not matrices or the inner dimensions differ.
///
/// # Examples
///
/// ```
/// use pv_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// let i = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]);
/// assert_eq!(matmul(&a, &i), a);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    crate::backend::current_backend().matmul(a, b)
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` (result `[m, n]`).
///
/// Used for weight gradients: `dW = Xᵀ · dY`. Dispatches through the
/// current [`crate::backend::Backend`]; bitwise identical across
/// backends.
///
/// # Panics
///
/// Panics if the operands are not matrices or the leading dimensions differ.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    crate::backend::current_backend().matmul_at_b(a, b)
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]` (result `[m, n]`).
///
/// Used by the linear layer's forward pass (`Y = X · Wᵀ` when `W: [out, in]`
/// is stored row-major by output), for input gradients, and as the GEMM
/// behind im2col convolution. On the packed backend this flavour
/// transposes `B` into panels once, so it runs the same microkernel at
/// the same rate as [`matmul`] — the old dot-product formulation paid ~5×
/// for the same FLOPs. Dispatches through the current
/// [`crate::backend::Backend`]; bitwise identical across backends.
///
/// # Panics
///
/// Panics if the operands are not matrices or the trailing dimensions differ.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    crate::backend::current_backend().matmul_a_bt(a, b)
}

/// Matrix–vector product `y = A · x` for `A: [m, n]`, `x: [n]`.
///
/// Dispatches through the current [`crate::backend::Backend`]; on the
/// packed backend, tall-enough problems route to the `MR`-row packed dot
/// driver (the matvec gap PR 6 left serial). Bitwise identical across
/// backends.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn matvec(a: &Tensor, x: &Tensor) -> Tensor {
    crate::backend::current_backend().matvec(a, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.dim(0), a.dim(1), b.dim(1));
        Tensor::from_fn(&[m, n], |idx| {
            let (i, j) = (idx / n, idx % n);
            (0..k).map(|p| a.at2(i, p) * b.at2(p, j)).sum()
        })
    }

    #[test]
    fn matmul_small_known() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_matches_naive_on_random() {
        let mut rng = Rng::new(1);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (8, 8, 8),
            (7, 13, 11),
            (2, 300, 3),
            (65, 4, 9),
            (70, 64, 70),
        ] {
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
            let fast = matmul(&a, &b);
            let slow = naive_matmul(&a, &b);
            assert!(fast.max_abs_diff(&slow) < 1e-4, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn all_flavours_match_scalar_bodies_bitwise() {
        let mut rng = Rng::new(21);
        for &(m, k, n) in &[
            (5, 7, 3),
            (64, 64, 64),
            (130, 33, 66),
            (3, 500, 20),
            (257, 64, 1),
        ] {
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
            assert_eq!(matmul(&a, &b), scalar_matmul(&a, &b), "{m}x{k}x{n}");

            let at = Tensor::rand_uniform(&[k, m], -1.0, 1.0, &mut rng);
            assert_eq!(
                matmul_at_b(&at, &b),
                scalar_matmul_at_b(&at, &b),
                "{m}x{k}x{n}"
            );

            let bt = Tensor::rand_uniform(&[n, k], -1.0, 1.0, &mut rng);
            assert_eq!(
                matmul_a_bt(&a, &bt),
                scalar_matmul_a_bt(&a, &bt),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn packed_dot_gemm_matches_scalar_bitwise() {
        // n == 1 shapes large enough to take the PackedDot route, plus
        // misaligned row counts exercising the partial last panel.
        let mut rng = Rng::new(23);
        for &(m, k) in &[(257, 64), (4096, 64), (130, 1000), (4099, 3)] {
            assert_eq!(
                select(Variant::Ab, m, k, 1),
                Routine::PackedDot,
                "{m}x{k}x1 must exercise the dot routine"
            );
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, 1], -1.0, 1.0, &mut rng);
            assert_eq!(matmul(&a, &b), scalar_matmul(&a, &b), "{m}x{k}x1");

            let at = Tensor::rand_uniform(&[k, m], -1.0, 1.0, &mut rng);
            assert_eq!(
                matmul_at_b(&at, &b),
                scalar_matmul_at_b(&at, &b),
                "{m}x{k}x1"
            );

            let bt = Tensor::rand_uniform(&[1, k], -1.0, 1.0, &mut rng);
            assert_eq!(
                matmul_a_bt(&a, &bt),
                scalar_matmul_a_bt(&a, &bt),
                "{m}x{k}x1"
            );
        }
    }

    #[test]
    fn packed_matvec_matches_scalar_bitwise() {
        let mut rng = Rng::new(24);
        for &(m, n) in &[(1, 1), (29, 16), (257, 64), (4096, 64), (4099, 3)] {
            let a = Tensor::rand_uniform(&[m, n], -1.0, 1.0, &mut rng);
            let x = Tensor::rand_uniform(&[n], -1.0, 1.0, &mut rng);
            assert_eq!(
                packed_matvec("packed", &a, &x),
                scalar_matvec(&a, &x),
                "{m}x{n}"
            );
        }
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let mut rng = Rng::new(2);
        for &(k, m, n) in &[(6, 4, 5), (1, 1, 1), (300, 7, 3), (9, 65, 2)] {
            let a = Tensor::rand_uniform(&[k, m], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
            let expect = matmul(&a.transpose2(), &b);
            assert!(
                matmul_at_b(&a, &b).max_abs_diff(&expect) < 1e-4,
                "{k}x{m}x{n}"
            );
        }

        for &(m, k, n) in &[(3, 4, 7), (1, 1, 1), (5, 300, 2), (64, 3, 3)] {
            let c = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let d = Tensor::rand_uniform(&[n, k], -1.0, 1.0, &mut rng);
            let expect = matmul(&c, &d.transpose2());
            assert!(
                matmul_a_bt(&c, &d).max_abs_diff(&expect) < 1e-4,
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn degenerate_dims_yield_zeros() {
        assert_eq!(
            matmul(&Tensor::zeros(&[0, 3]), &Tensor::zeros(&[3, 2])).shape(),
            &[0, 2]
        );
        assert_eq!(
            matmul(&Tensor::zeros(&[2, 0]), &Tensor::zeros(&[0, 3])).data(),
            &[0.0; 6]
        );
        assert_eq!(
            matmul_at_b(&Tensor::zeros(&[0, 2]), &Tensor::zeros(&[0, 3])).data(),
            &[0.0; 6]
        );
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = Rng::new(3);
        let a = Tensor::rand_uniform(&[5, 4], -1.0, 1.0, &mut rng);
        let x = Tensor::rand_uniform(&[4], -1.0, 1.0, &mut rng);
        let y = matvec(&a, &x);
        let ym = matmul(&a, &x.reshape(&[4, 1]));
        for i in 0..5 {
            assert!((y.data()[i] - ym.data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        matmul(&a, &b);
    }
}
