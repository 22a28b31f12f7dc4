//! The kernel backend seam: every hot kernel behind one pluggable trait.
//!
//! A [`Backend`] owns the full hot-kernel surface — the three GEMM
//! flavours, `matvec`, the im2col/col2im pair, convolution forward +
//! backward, and max pooling. Three implementations ship today:
//!
//! * [`ScalarBackend`] (`"scalar"`) — the naive `mul_add` oracle, promoted
//!   from a test-only helper to a first-class backend;
//! * [`PackedBackend`] (`"packed"`) — the BLIS-style packed pipeline with
//!   its shape-keyed routine selector ([`fn@crate::select`]);
//! * [`SparseBackend`] (`"sparse"`) — CSR kernels for pruned weights
//!   carrying a [`Tensor::ensure_csr`] sidecar, packed fallback otherwise
//!   (see [`crate::sparse`] and DESIGN.md §15).
//!
//! Every backend is required (and conformance-tested, see
//! `crates/tensor/tests/backend_conformance.rs`) to be **bitwise
//! identical** to [`ScalarBackend`] on every shape at every
//! `PV_NUM_THREADS` — the PR 6 numeric contract generalized so future
//! sparse/quantized backends inherit an oracle for free. The convolution
//! and pooling methods have default bodies composed from the backend's
//! own GEMMs plus shared data-movement code (im2col gathers, layout
//! folds), so a new backend only implements the four products and the
//! whole conv family follows — bitwise-identical GEMMs imply a
//! bitwise-identical conv family by construction.
//!
//! Selection is runtime, not compile-time (precedence low → high):
//!
//! 1. **process default** — the `PV_BACKEND` env var (unset → `"packed"`),
//!    read once and cached;
//! 2. **scoped override** — [`with_backend`] installs a backend for the
//!    current thread for the duration of a closure (pv-serve uses this to
//!    honor per-model registry entries; the `serve --backend` CLI flag
//!    writes those entries).
//!
//! The scoped override is thread-local, which is sound here because
//! kernels resolve their backend on the *calling* thread before
//! [`crate::par`] fans work out to workers — worker threads never consult
//! the selection state. See `DESIGN.md` §13 for the full spec.

use crate::conv::{
    col2im_body, im2col_body, maxpool2d_backward_body, maxpool2d_forward_body, nchw_to_rows,
    rows_to_nchw, ConvBackward, ConvForward, ConvGeometry, PoolForward,
};
use crate::linalg::{
    ab_dims, abt_dims, atb_dims, gemm, matvec_dims, packed_matvec, scalar_matmul,
    scalar_matmul_a_bt, scalar_matmul_at_b, scalar_matvec,
};
use crate::profile::{kernel_timer_call, KernelCall};
use crate::select::Variant;
use crate::tensor::Tensor;
use std::cell::Cell;
use std::sync::OnceLock;

/// A complete hot-kernel implementation.
///
/// The four products are required; the conv/pool family has default
/// bodies composed from `self`'s products, so implementing the products
/// (bitwise-identically to [`ScalarBackend`]) makes the whole surface
/// conform. All methods shape-check with the same shared helpers, so
/// panic messages are identical across backends.
pub trait Backend: Send + Sync {
    /// Stable lowercase backend name (`"scalar"`, `"packed"`); used by
    /// `PV_BACKEND`, the serve registry, CLI flags, checkpoint metadata,
    /// and pv-obs span labels.
    fn name(&self) -> &'static str;

    /// `C = A · B` for `A: [m, k]`, `B: [k, n]`.
    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor;

    /// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` (result `[m, n]`).
    fn matmul_at_b(&self, a: &Tensor, b: &Tensor) -> Tensor;

    /// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]` (result `[m, n]`).
    fn matmul_a_bt(&self, a: &Tensor, b: &Tensor) -> Tensor;

    /// Matrix–vector product `y = A · x` for `A: [m, n]`, `x: [n]`.
    fn matvec(&self, a: &Tensor, x: &Tensor) -> Tensor;

    /// Unfolds `x: [N, C, H, W]` into a `[N*OH*OW, C*KH*KW]` matrix (one
    /// output position per row; padded positions contribute zeros).
    fn im2col(&self, x: &Tensor, g: ConvGeometry) -> Tensor {
        assert_eq!(x.ndim(), 4, "im2col expects NCHW input");
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (oh, ow) = g.output_size(h, w);
        let row_len = c * g.kh * g.kw;
        let _kt = kernel_timer_call(KernelCall {
            name: "im2col",
            backend: self.name(),
            routine: "",
            shape: [n * oh * ow, row_len, 0],
        });
        im2col_body(x, g)
    }

    /// Folds a `[N*OH*OW, C*KH*KW]` matrix back into `[N, C, H, W]`,
    /// summing overlapping contributions (the adjoint of
    /// [`Backend::im2col`]).
    // BLAS-convention flat geometry list, matching the free function.
    #[allow(clippy::too_many_arguments)]
    fn col2im(
        &self,
        cols: &Tensor,
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        g: ConvGeometry,
    ) -> Tensor {
        col2im_body(cols, n, c, h, w, g)
    }

    /// 2-D convolution forward pass (`x: [N, C, H, W]`, `weight:
    /// [F, C*KH*KW]`, `bias: [F]`), composed from [`Backend::im2col`] and
    /// [`Backend::matmul_a_bt`].
    fn conv2d_forward(
        &self,
        x: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        g: ConvGeometry,
    ) -> ConvForward {
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let f = weight.dim(0);
        assert_eq!(weight.dim(1), c * g.kh * g.kw, "filter bank shape mismatch");
        assert_eq!(bias.len(), f, "bias length mismatch");
        let (oh, ow) = g.output_size(h, w);
        let _kt = kernel_timer_call(KernelCall {
            name: "conv2d_forward",
            backend: self.name(),
            routine: "im2col_gemm",
            shape: [n * oh * ow, c * g.kh * g.kw, f],
        });
        let cols = self.im2col(x, g);
        // [N*OH*OW, Ckhkw] x [F, Ckhkw]^T -> [N*OH*OW, F]
        let mut rows = self.matmul_a_bt(&cols, weight);
        rows.add_row_broadcast(bias);
        ConvForward {
            output: rows_to_nchw(&rows, n, f, oh, ow),
            cols,
        }
    }

    /// 2-D convolution backward pass (`grad_out: [N, F, OH, OW]`, `cols`
    /// cached by the forward pass, `(h, w)` the input spatial size),
    /// composed from [`Backend::matmul_at_b`], [`Backend::matmul`] and
    /// [`Backend::col2im`].
    // BLAS-convention flat geometry list, matching the free function.
    #[allow(clippy::too_many_arguments)]
    fn conv2d_backward(
        &self,
        grad_out: &Tensor,
        cols: &Tensor,
        weight: &Tensor,
        c: usize,
        h: usize,
        w: usize,
        g: ConvGeometry,
    ) -> ConvBackward {
        let _kt = kernel_timer_call(KernelCall {
            name: "conv2d_backward",
            backend: self.name(),
            routine: "im2col_gemm",
            shape: [
                grad_out.len() / grad_out.dim(1).max(1),
                c * g.kh * g.kw,
                grad_out.dim(1),
            ],
        });
        let n = grad_out.dim(0);
        let g_rows = nchw_to_rows(grad_out); // [N*OH*OW, F]
        let grad_weight = self.matmul_at_b(&g_rows, cols); // [F, Ckhkw]
        let grad_bias = g_rows.sum_rows(); // [F]
        let grad_cols = self.matmul(&g_rows, weight); // [N*OH*OW, Ckhkw]
        let grad_input = self.col2im(&grad_cols, n, c, h, w, g);
        ConvBackward {
            grad_input,
            grad_weight,
            grad_bias,
        }
    }

    /// Max pooling forward pass over non-overlapping or strided windows.
    fn maxpool2d_forward(&self, x: &Tensor, g: ConvGeometry) -> PoolForward {
        assert_eq!(x.ndim(), 4, "maxpool expects NCHW input");
        assert_eq!(g.pad, 0, "maxpool with padding is not supported");
        let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (oh, ow) = g.output_size(h, w);
        let _kt = kernel_timer_call(KernelCall {
            name: "maxpool2d",
            backend: self.name(),
            routine: "",
            shape: [n, c, oh * ow],
        });
        maxpool2d_forward_body(x, g, oh, ow)
    }

    /// Max pooling backward pass: routes each output gradient to the
    /// input position that produced the maximum.
    fn maxpool2d_backward(
        &self,
        grad_out: &Tensor,
        argmax: &[usize],
        input_shape: &[usize],
    ) -> Tensor {
        maxpool2d_backward_body(grad_out, argmax, input_shape)
    }
}

/// The scalar oracle backend: naive ascending-`k` `mul_add` loops, no
/// packing, no parallelism. Slow by design — it exists as the bitwise
/// ground truth every other backend must match, and as a bisection tool
/// (`PV_BACKEND=scalar`) when a kernel is suspect.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = ab_dims(a, b);
        let _kt = kernel_timer_call(KernelCall {
            name: "matmul",
            backend: "scalar",
            routine: "scalar",
            shape: [m, k, n],
        });
        scalar_matmul(a, b)
    }

    fn matmul_at_b(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = atb_dims(a, b);
        let _kt = kernel_timer_call(KernelCall {
            name: "matmul_at_b",
            backend: "scalar",
            routine: "scalar",
            shape: [m, k, n],
        });
        scalar_matmul_at_b(a, b)
    }

    fn matmul_a_bt(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = abt_dims(a, b);
        let _kt = kernel_timer_call(KernelCall {
            name: "matmul_a_bt",
            backend: "scalar",
            routine: "scalar",
            shape: [m, k, n],
        });
        scalar_matmul_a_bt(a, b)
    }

    fn matvec(&self, a: &Tensor, x: &Tensor) -> Tensor {
        let (m, n) = matvec_dims(a, x);
        let _kt = kernel_timer_call(KernelCall {
            name: "matvec",
            backend: "scalar",
            routine: "scalar",
            shape: [m, n, 1],
        });
        scalar_matvec(a, x)
    }
}

/// The production backend: the PR 6 BLIS-style packed pipeline
/// (shape-keyed routine selection, register panels, full-`k` microkernel
/// tiles, `PV_NUM_THREADS` row partitioning). Bitwise identical to
/// [`ScalarBackend`] by the DESIGN.md §12 contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackedBackend;

impl Backend for PackedBackend {
    fn name(&self) -> &'static str {
        "packed"
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = ab_dims(a, b);
        gemm("packed", Variant::Ab, a.data(), b.data(), m, k, n)
    }

    fn matmul_at_b(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = atb_dims(a, b);
        gemm("packed", Variant::AtB, a.data(), b.data(), m, k, n)
    }

    fn matmul_a_bt(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = abt_dims(a, b);
        gemm("packed", Variant::ABt, a.data(), b.data(), m, k, n)
    }

    fn matvec(&self, a: &Tensor, x: &Tensor) -> Tensor {
        matvec_dims(a, x);
        packed_matvec("packed", a, x)
    }
}

/// The sparse serving backend: routes the weight-stationary products of a
/// pruned model through the CSR kernels in [`crate::sparse`] whenever the
/// weight operand carries a CSR sidecar (built by [`Tensor::ensure_csr`],
/// typically at model-admission time), and falls back to the packed
/// pipeline — bitwise identical to scalar, like every backend — when it
/// does not.
///
/// The sidecar is the routing signal because sparsity is a property of a
/// *specific tensor* (a pruned weight), not of a shape: activations,
/// gradients, and dense layers keep full packed speed under
/// `PV_BACKEND=sparse`, while 90%+-pruned weights skip their zeros. Only
/// the weight-stationary flavours have CSR paths — `matmul_a_bt` (linear
/// forward, weight is `b`) and `matvec` (single-sample forward, weight is
/// `a`); `matmul`/`matmul_at_b` (backward products over dense activations)
/// always run packed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SparseBackend;

impl Backend for SparseBackend {
    fn name(&self) -> &'static str {
        "sparse"
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = ab_dims(a, b);
        gemm("sparse", Variant::Ab, a.data(), b.data(), m, k, n)
    }

    fn matmul_at_b(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = atb_dims(a, b);
        gemm("sparse", Variant::AtB, a.data(), b.data(), m, k, n)
    }

    fn matmul_a_bt(&self, a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = abt_dims(a, b);
        match b.csr() {
            Some(csr) => {
                let _kt = kernel_timer_call(KernelCall {
                    name: "matmul_a_bt",
                    backend: "sparse",
                    routine: "csr_abt",
                    shape: [m, k, n],
                });
                crate::sparse::csr_matmul_a_bt(a, csr, m, k, n)
            }
            None => gemm("sparse", Variant::ABt, a.data(), b.data(), m, k, n),
        }
    }

    fn matvec(&self, a: &Tensor, x: &Tensor) -> Tensor {
        let (m, n) = matvec_dims(a, x);
        match a.csr() {
            Some(csr) => {
                let _kt = kernel_timer_call(KernelCall {
                    name: "matvec",
                    backend: "sparse",
                    routine: "csr_matvec",
                    shape: [m, n, 1],
                });
                crate::sparse::csr_matvec(csr, x, m, n)
            }
            None => packed_matvec("sparse", a, x),
        }
    }
}

/// The scalar oracle backend instance.
pub static SCALAR: ScalarBackend = ScalarBackend;

/// The packed production backend instance.
pub static PACKED: PackedBackend = PackedBackend;

/// The sparse serving backend instance.
pub static SPARSE: SparseBackend = SparseBackend;

/// Every registered backend, scalar oracle first.
static BACKENDS: [&dyn Backend; 3] = [&SCALAR, &PACKED, &SPARSE];

/// All registered backends (the conformance suite iterates this so new
/// backends are tested against the oracle just by joining the array).
pub fn all_backends() -> &'static [&'static dyn Backend] {
    &BACKENDS
}

/// Looks up a backend by its [`Backend::name`] (ASCII case-insensitive).
pub fn backend_by_name(name: &str) -> Option<&'static dyn Backend> {
    BACKENDS
        .iter()
        .copied()
        .find(|b| b.name().eq_ignore_ascii_case(name))
}

static PROCESS_DEFAULT: OnceLock<&'static dyn Backend> = OnceLock::new();

/// Resolves the process-default backend from an optional `PV_BACKEND`
/// value (factored out of the env read so tests can cover the parse).
fn default_from(env: Option<&str>) -> &'static dyn Backend {
    match env {
        None => &PACKED,
        Some(name) => backend_by_name(name).unwrap_or_else(|| {
            // pv-analyze: allow(lib-panic) -- an unknown PV_BACKEND is an
            // operator typo at process start; silently falling back would
            // run every experiment on the wrong backend
            panic!("PV_BACKEND={name}: unknown backend (expected one of: scalar, packed, sparse)")
        }),
    }
}

/// The process-default backend: `PV_BACKEND` if set (read once, cached),
/// else [`PackedBackend`].
///
/// # Panics
///
/// Panics on the first call if `PV_BACKEND` names an unknown backend.
pub fn process_default() -> &'static dyn Backend {
    *PROCESS_DEFAULT.get_or_init(|| {
        #[expect(
            clippy::disallowed_methods,
            reason = "PV_BACKEND picks the process-default backend once; every backend is bitwise equal"
        )]
        let env = std::env::var("PV_BACKEND");
        default_from(env.ok().as_deref())
    })
}

std::thread_local! {
    /// Per-thread scoped override installed by [`with_backend`].
    static SCOPED: Cell<Option<&'static dyn Backend>> = const { Cell::new(None) };
}

/// The backend the current thread's kernels dispatch through: the
/// innermost [`with_backend`] scope if one is active, else the
/// [`process_default`].
pub fn current_backend() -> &'static dyn Backend {
    SCOPED.with(Cell::get).unwrap_or_else(process_default)
}

/// Restores the previous scoped backend on drop, so [`with_backend`]
/// unwinds correctly even if the closure panics.
struct ScopeGuard {
    prev: Option<&'static dyn Backend>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPED.with(|s| s.set(self.prev));
    }
}

/// Runs `f` with `backend` as the current thread's backend, restoring the
/// previous selection afterwards (scopes nest; panic-safe).
///
/// This is how pv-serve honors per-model backend choices: the worker
/// thread wraps each batch's forward pass, and because kernels resolve
/// their backend on the calling thread before fanning out to
/// [`crate::par`] workers, the override covers the whole model execution.
pub fn with_backend<R>(backend: &'static dyn Backend, f: impl FnOnce() -> R) -> R {
    let prev = SCOPED.with(|s| s.replace(Some(backend)));
    let _guard = ScopeGuard { prev };
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn registry_knows_every_backend() {
        let names: Vec<_> = all_backends().iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["scalar", "packed", "sparse"]);
        assert_eq!(backend_by_name("packed").unwrap().name(), "packed");
        assert_eq!(backend_by_name("SCALAR").unwrap().name(), "scalar");
        assert_eq!(backend_by_name("Sparse").unwrap().name(), "sparse");
        assert!(backend_by_name("quantized").is_none());
        assert!(backend_by_name("").is_none());
    }

    #[test]
    fn default_resolution_prefers_packed() {
        assert_eq!(default_from(None).name(), "packed");
        assert_eq!(default_from(Some("scalar")).name(), "scalar");
        assert_eq!(default_from(Some("Packed")).name(), "packed");
    }

    #[test]
    #[should_panic(expected = "unknown backend")]
    fn unknown_env_backend_panics() {
        default_from(Some("quantum"));
    }

    #[test]
    fn with_backend_scopes_and_restores() {
        let outer = current_backend().name();
        let inner = with_backend(&SCALAR, || {
            let mid = current_backend().name();
            let nested = with_backend(&PACKED, || current_backend().name());
            assert_eq!(nested, "packed");
            assert_eq!(current_backend().name(), "scalar");
            mid
        });
        assert_eq!(inner, "scalar");
        assert_eq!(current_backend().name(), outer);
    }

    #[test]
    fn with_backend_restores_after_panic() {
        let before = current_backend().name();
        let caught = std::panic::catch_unwind(|| {
            with_backend(&SCALAR, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(current_backend().name(), before);
    }

    #[test]
    fn trait_methods_agree_bitwise_across_backends() {
        let mut rng = Rng::new(31);
        for &(m, k, n) in &[(5, 7, 3), (70, 64, 70), (257, 64, 1)] {
            let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
            assert_eq!(PACKED.matmul(&a, &b), SCALAR.matmul(&a, &b), "{m}x{k}x{n}");
            let at = Tensor::rand_uniform(&[k, m], -1.0, 1.0, &mut rng);
            assert_eq!(PACKED.matmul_at_b(&at, &b), SCALAR.matmul_at_b(&at, &b));
            let bt = Tensor::rand_uniform(&[n, k], -1.0, 1.0, &mut rng);
            assert_eq!(PACKED.matmul_a_bt(&a, &bt), SCALAR.matmul_a_bt(&a, &bt));
        }
        let a = Tensor::rand_uniform(&[300, 40], -1.0, 1.0, &mut rng);
        let x = Tensor::rand_uniform(&[40], -1.0, 1.0, &mut rng);
        assert_eq!(PACKED.matvec(&a, &x), SCALAR.matvec(&a, &x));
    }

    #[test]
    fn free_functions_follow_the_scoped_backend() {
        let mut rng = Rng::new(32);
        let a = Tensor::rand_uniform(&[33, 17], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[17, 9], -1.0, 1.0, &mut rng);
        let via_scalar = with_backend(&SCALAR, || crate::matmul(&a, &b));
        let via_packed = with_backend(&PACKED, || crate::matmul(&a, &b));
        assert_eq!(via_scalar, via_packed);
        assert_eq!(via_scalar, crate::linalg::scalar_matmul(&a, &b));
    }

    #[test]
    fn sparse_backend_routes_csr_and_fallback_identically() {
        let mut rng = Rng::new(34);
        // a 90%-sparse weight [n, k] for the forward product A·Bᵀ
        let (m, k, n) = (6, 48, 32);
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let mut w = Tensor::from_fn(&[n, k], |_| {
            if rng.uniform() < 0.1 {
                rng.uniform_in(-1.0, 1.0)
            } else {
                0.0
            }
        });
        let dense_result = SCALAR.matmul_a_bt(&a, &w);
        // without a sidecar the sparse backend is the packed fallback
        assert_eq!(SPARSE.matmul_a_bt(&a, &w), dense_result);
        assert!(w.ensure_csr(crate::sparse::DEFAULT_MAX_DENSITY));
        // with a sidecar the CSR kernel must agree with the oracle
        assert_eq!(SPARSE.matmul_a_bt(&a, &w), dense_result);

        let x = Tensor::rand_uniform(&[k], -1.0, 1.0, &mut rng);
        let mut wv = w.clone();
        wv.clear_csr();
        let dense_y = SCALAR.matvec(&wv, &x);
        assert_eq!(SPARSE.matvec(&wv, &x), dense_y);
        assert_eq!(SPARSE.matvec(&w, &x), dense_y);
    }

    #[test]
    fn conv_defaults_agree_bitwise_across_backends() {
        let mut rng = Rng::new(33);
        let g = ConvGeometry::new(3, 1, 1);
        let x = Tensor::rand_uniform(&[2, 3, 6, 6], -1.0, 1.0, &mut rng);
        let wt = Tensor::rand_uniform(&[4, 3 * 9], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[4], -1.0, 1.0, &mut rng);
        let fs = SCALAR.conv2d_forward(&x, &wt, &b, g);
        let fp = PACKED.conv2d_forward(&x, &wt, &b, g);
        assert_eq!(fs.output, fp.output);
        assert_eq!(fs.cols, fp.cols);
        let grad_out = Tensor::ones(fs.output.shape());
        let bs = SCALAR.conv2d_backward(&grad_out, &fs.cols, &wt, 3, 6, 6, g);
        let bp = PACKED.conv2d_backward(&grad_out, &fp.cols, &wt, 3, 6, 6, g);
        assert_eq!(bs.grad_input, bp.grad_input);
        assert_eq!(bs.grad_weight, bp.grad_weight);
        assert_eq!(bs.grad_bias, bp.grad_bias);
    }
}
