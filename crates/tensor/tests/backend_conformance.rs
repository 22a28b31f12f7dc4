//! Backend conformance suite: every registered backend vs the scalar
//! oracle.
//!
//! Every [`Backend`](pv_tensor::Backend) in
//! [`all_backends`](pv_tensor::all_backends) must be **bitwise
//! identical** to [`ScalarBackend`](pv_tensor::ScalarBackend) — not
//! approximately equal — on every kernel, at every thread count.
//! `Tensor` derives exact `PartialEq` over `f32` storage, so
//! `assert_eq!` is a bit-for-bit check. A future sparse or quantized
//! backend joins the registry and inherits this oracle for free.
//!
//! The shape grid deliberately hammers the degenerate and misaligned
//! cases: single rows/columns, empty and unit `k`, extents that are not
//! multiples of the microkernel geometry (`MR = 4`, `NR = 64`,
//! `NR_NARROW = 16`), and the tall-skinny `n == 1` shapes that route to
//! the packed dot kernel — so every zero-padded panel edge and partial
//! tile store is exercised, at 1, 2, and 7 threads.

use pv_tensor::par::set_thread_override;
use pv_tensor::{
    all_backends, select, select_matvec, with_backend, Backend, ConvGeometry, Routine, Variant, MR,
    NR, NR_NARROW, SCALAR,
};
use pv_tensor::{Rng, Tensor};
use std::sync::Mutex;

/// Serializes tests in this binary around the process-wide thread override.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// The property grid: degenerate extents, unit extents, exact multiples
/// of the microkernel geometry, and every off-by-one around it.
fn shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        // degenerate: empty k (both flavours must yield exact zeros)
        (3, 0, 5),
        (1, 0, 1),
        // unit extents: 1xN, Mx1, k=1
        (1, 17, 30),
        (1, 1, NR + 1),
        (29, 16, 1),
        (1, 5, 1),
        (9, 1, 33),
        // tall-skinny n == 1: routes to the packed dot kernel, with a
        // row count off the MR grid so the last partial panel is hit
        (257, 64, 1),
        (4 * NR + 3, 33, 1),
        // misaligned around MR / NR / NR_NARROW
        (MR - 1, 10, NR - 1),
        (MR + 1, 13, NR + 1),
        (2 * MR + 1, 31, NR_NARROW - 1),
        (17, 29, NR_NARROW + 1),
        (33, 7, 2 * NR + 3),
        // exact multiples (no partial tiles at all)
        (2 * MR, 8, NR),
        (8, 32, NR_NARROW),
        // big enough for multi-chunk parallel dispatch
        (130, 67, 65),
        (257, 40, 130),
    ];
    shapes.push((MR, 1, NR_NARROW));
    shapes
}

/// Asserts `got() == want` bitwise at every tested thread count.
fn assert_matches_oracle_at_all_thread_counts(
    label: &str,
    backend: &str,
    shape: (usize, usize, usize),
    want: &Tensor,
    got: impl Fn() -> Tensor,
) {
    for threads in THREAD_COUNTS {
        set_thread_override(Some(threads));
        let out = got();
        assert_eq!(
            &out, want,
            "{backend}.{label} {shape:?} diverged from the scalar oracle at {threads} threads"
        );
    }
    set_thread_override(None);
}

#[test]
fn all_backends_match_scalar_oracle_bitwise_on_gemm_family() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = Rng::new(2026);
    for (m, k, n) in shapes() {
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
        let at = Tensor::rand_uniform(&[k, m], -2.0, 2.0, &mut rng);
        let bt = Tensor::rand_uniform(&[n, k], -2.0, 2.0, &mut rng);
        let want_ab = SCALAR.matmul(&a, &b);
        let want_atb = SCALAR.matmul_at_b(&at, &b);
        let want_abt = SCALAR.matmul_a_bt(&a, &bt);
        for be in all_backends() {
            assert_matches_oracle_at_all_thread_counts(
                "matmul",
                be.name(),
                (m, k, n),
                &want_ab,
                || be.matmul(&a, &b),
            );
            assert_matches_oracle_at_all_thread_counts(
                "matmul_at_b",
                be.name(),
                (m, k, n),
                &want_atb,
                || be.matmul_at_b(&at, &b),
            );
            assert_matches_oracle_at_all_thread_counts(
                "matmul_a_bt",
                be.name(),
                (m, k, n),
                &want_abt,
                || be.matmul_a_bt(&a, &bt),
            );
        }
    }
}

#[test]
fn all_backends_match_scalar_oracle_bitwise_on_matvec() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = Rng::new(7);
    // (257, 64) and (4096, 3) take the packed dot route; the rest stay
    // on the serial scalar body.
    for (m, n) in [(1, 1), (1, 37), (65, 1), (33, 129), (257, 64), (4096, 3)] {
        let a = Tensor::rand_uniform(&[m, n], -2.0, 2.0, &mut rng);
        let x = Tensor::rand_uniform(&[n], -2.0, 2.0, &mut rng);
        let want = SCALAR.matvec(&a, &x);
        for be in all_backends() {
            assert_matches_oracle_at_all_thread_counts(
                "matvec",
                be.name(),
                (m, n, 1),
                &want,
                || be.matvec(&a, &x),
            );
        }
    }
}

#[test]
fn all_backends_match_scalar_oracle_bitwise_on_conv_family() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = Rng::new(11);
    for &(stride, pad) in &[(1usize, 1usize), (2, 1), (1, 0)] {
        let g = ConvGeometry::new(3, stride, pad);
        let x = Tensor::rand_uniform(&[2, 3, 7, 7], -1.0, 1.0, &mut rng);
        let wt = Tensor::rand_uniform(&[5, 3 * 9], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[5], -1.0, 1.0, &mut rng);
        let want_cols = SCALAR.im2col(&x, g);
        let want_fwd = SCALAR.conv2d_forward(&x, &wt, &b, g);
        let grad_out = Tensor::rand_uniform(want_fwd.output.shape(), -1.0, 1.0, &mut rng);
        let want_bwd = SCALAR.conv2d_backward(&grad_out, &want_fwd.cols, &wt, 3, 7, 7, g);
        for be in all_backends() {
            for threads in THREAD_COUNTS {
                set_thread_override(Some(threads));
                assert_eq!(be.im2col(&x, g), want_cols, "{} im2col", be.name());
                let fwd = be.conv2d_forward(&x, &wt, &b, g);
                assert_eq!(fwd.output, want_fwd.output, "{} conv fwd", be.name());
                assert_eq!(fwd.cols, want_fwd.cols, "{} conv cols", be.name());
                let bwd = be.conv2d_backward(&grad_out, &fwd.cols, &wt, 3, 7, 7, g);
                assert_eq!(bwd.grad_input, want_bwd.grad_input, "{}", be.name());
                assert_eq!(bwd.grad_weight, want_bwd.grad_weight, "{}", be.name());
                assert_eq!(bwd.grad_bias, want_bwd.grad_bias, "{}", be.name());
            }
            set_thread_override(None);
        }
    }
    // max pooling (no padding supported)
    let g = ConvGeometry::new(2, 2, 0);
    let x = Tensor::rand_uniform(&[3, 2, 8, 8], -1.0, 1.0, &mut rng);
    let want = SCALAR.maxpool2d_forward(&x, g);
    let grad_out = Tensor::rand_uniform(want.output.shape(), -1.0, 1.0, &mut rng);
    let want_back = SCALAR.maxpool2d_backward(&grad_out, &want.argmax, x.shape());
    for be in all_backends() {
        for threads in THREAD_COUNTS {
            set_thread_override(Some(threads));
            let fwd = be.maxpool2d_forward(&x, g);
            assert_eq!(fwd.output, want.output, "{} maxpool fwd", be.name());
            assert_eq!(fwd.argmax, want.argmax, "{} maxpool argmax", be.name());
            let back = be.maxpool2d_backward(&grad_out, &fwd.argmax, x.shape());
            assert_eq!(back, want_back, "{} maxpool bwd", be.name());
        }
        set_thread_override(None);
    }
}

/// Zeroes out all but roughly one-in-`keep_one_in` entries, producing the
/// kind of unstructured-pruned weight the CSR kernels exist for.
fn sparsify(t: &Tensor, keep_one_in: usize, rng: &mut Rng) -> Tensor {
    let data = t
        .data()
        .iter()
        .map(|&v| {
            if rng.chance(1.0 / keep_one_in as f64) {
                v
            } else {
                0.0
            }
        })
        .collect();
    Tensor::from_vec(t.shape().to_vec(), data)
}

/// The sparse backend's CSR routes (not just its dense fallback) must be
/// bitwise-identical to the scalar oracle on pruned weights, at every
/// thread count: skipping an exact-zero term in an fma chain is
/// `==`-invisible for finite data, so no tolerance is granted.
#[test]
fn sparse_backend_csr_routes_match_scalar_oracle_bitwise() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = Rng::new(2027);
    for (m, k, n) in shapes() {
        let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
        let mut bt = sparsify(
            &Tensor::rand_uniform(&[n, k], -2.0, 2.0, &mut rng),
            10,
            &mut rng,
        );
        // force the sidecar so this exercises the CSR kernel, never the
        // dense fallback (density 1.0 admits any nonzero count)
        let routed = bt.ensure_csr(1.0);
        assert_eq!(
            routed,
            n * k > 0,
            "every non-empty weight must take the CSR route ({n}x{k})"
        );
        let want = SCALAR.matmul_a_bt(&a, &bt);
        assert_matches_oracle_at_all_thread_counts(
            "matmul_a_bt[csr]",
            "sparse",
            (m, k, n),
            &want,
            || pv_tensor::SPARSE.matmul_a_bt(&a, &bt),
        );
    }
    for (m, n) in [(1, 1), (1, 37), (65, 1), (33, 129), (257, 64), (4096, 3)] {
        let mut a = sparsify(
            &Tensor::rand_uniform(&[m, n], -2.0, 2.0, &mut rng),
            10,
            &mut rng,
        );
        assert!(a.ensure_csr(1.0), "matvec weight must take the CSR route");
        let x = Tensor::rand_uniform(&[n], -2.0, 2.0, &mut rng);
        let want = SCALAR.matvec(&a, &x);
        assert_matches_oracle_at_all_thread_counts(
            "matvec[csr]",
            "sparse",
            (m, n, 1),
            &want,
            || pv_tensor::SPARSE.matvec(&a, &x),
        );
    }
}

#[test]
fn degenerate_products_are_exact_zeros_on_every_backend() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let a = Tensor::rand_uniform(&[4, 0], -1.0, 1.0, &mut Rng::new(3));
    let b = Tensor::rand_uniform(&[0, 6], -1.0, 1.0, &mut Rng::new(4));
    for be in all_backends() {
        for threads in THREAD_COUNTS {
            set_thread_override(Some(threads));
            let c = be.matmul(&a, &b);
            assert_eq!(c.shape(), &[4, 6]);
            assert!(c.data().iter().all(|&v| v.to_bits() == 0), "{}", be.name());
        }
        set_thread_override(None);
    }
}

#[test]
fn free_functions_dispatch_through_scoped_backend() {
    let _guard = OVERRIDE_LOCK.lock().unwrap();
    let mut rng = Rng::new(17);
    let a = Tensor::rand_uniform(&[33, 29], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[29, 31], -1.0, 1.0, &mut rng);
    let want = SCALAR.matmul(&a, &b);
    for be in all_backends() {
        let got = with_backend(*be, || pv_tensor::matmul(&a, &b));
        assert_eq!(got, want, "{}", be.name());
    }
}

/// The grid is only a property suite if it actually routes through every
/// routine — guard against selector drift silently shrinking coverage.
#[test]
fn shape_grid_covers_every_routine() {
    let mut covered = [false; 4];
    for (m, k, n) in shapes() {
        let idx = match select(Variant::Ab, m, k, n) {
            Routine::PackedWide => 0,
            Routine::PackedNarrow => 1,
            Routine::PackedDot => 2,
            Routine::Direct => 3,
        };
        covered[idx] = true;
    }
    assert_eq!(
        covered, [true; 4],
        "shape grid no longer exercises [wide, narrow, dot, direct]"
    );
    // the matvec selector must also reach both of its routines
    let matvec_routines: Vec<_> = [(1, 1), (1, 37), (65, 1), (33, 129), (257, 64), (4096, 3)]
        .iter()
        .map(|&(m, n)| select_matvec(m, n))
        .collect();
    assert!(matvec_routines.contains(&Routine::PackedDot));
    assert!(matvec_routines.contains(&Routine::Direct));
}
